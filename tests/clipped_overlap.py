"""Test oracle: the crossed-plate overlap by general polygon clipping.

Clips the fixed K x L plate against the rotated H x L plate with the
Sutherland-Hodgman algorithm and measures the resulting convex polygon. It
shares no formula with ``casimir.torque.overlap``, so it checks that
function's closed forms, and central differences of it check the
derivative formulas.
"""

import math

from casimir.torque import OverlapShape


def _rectangle(length, width):
    hx, hy = 0.5 * length, 0.5 * width
    return [(-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy)]


def _rotate(polygon, theta):
    ct, st = math.cos(theta), math.sin(theta)
    return [(ct * x - st * y, st * x + ct * y) for x, y in polygon]


def _clip(subject, clip_polygon):
    """Sutherland-Hodgman intersection of convex polygons (CCW vertex order)."""
    output = list(subject)
    n = len(clip_polygon)
    for i in range(n):
        if not output:
            return []
        ax, ay = clip_polygon[i]
        bx, by = clip_polygon[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        inputs = output
        output = []
        prev = inputs[-1]
        prev_in = ex * (prev[1] - ay) - ey * (prev[0] - ax) >= 0.0
        for cur in inputs:
            cur_in = ex * (cur[1] - ay) - ey * (cur[0] - ax) >= 0.0
            if cur_in != prev_in:
                # edge crossing: intersect the segment with the clip line
                dx, dy = cur[0] - prev[0], cur[1] - prev[1]
                denom = ex * dy - ey * dx
                t = (ey * (prev[0] - ax) - ex * (prev[1] - ay)) / denom
                output.append((prev[0] + t * dx, prev[1] + t * dy))
            if cur_in:
                output.append(cur)
            prev, prev_in = cur, cur_in
    return output


def _dedupe(polygon, tol):
    cleaned = []
    for p in polygon:
        if not cleaned or math.hypot(p[0] - cleaned[-1][0], p[1] - cleaned[-1][1]) > tol:
            cleaned.append(p)
    if len(cleaned) > 1 and math.hypot(cleaned[0][0] - cleaned[-1][0],
                                       cleaned[0][1] - cleaned[-1][1]) <= tol:
        cleaned.pop()
    return cleaned


def clipped_overlap(geom):
    """Area and perimeter of the clipped overlap polygon of ``geom``."""
    fixed = _rectangle(geom.plate_k, geom.plate_l)
    rotated = _rotate(_rectangle(geom.plate_h, geom.plate_l), geom.theta)
    poly = _dedupe(_clip(fixed, rotated), 1e-12 * geom.plate_l)
    area = 0.0
    perimeter = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        area += x0 * y1 - x1 * y0
        perimeter += math.hypot(x1 - x0, y1 - y0)
    return OverlapShape(0.5 * abs(area), perimeter)
