import math
import re

import pytest

from thicket.classifier import CategoryType, enumerate_thick
from thicket.ncp_models import BPartition, DPartition, SetPartitionA, rotate_a
from thicket.render import (
    WindowTooLarge,
    WrongModel,
    ascii_ar_strip,
    render_ar_strip,
    render_circle,
)
from thicket.root_coxeter import DynkinType, InvalidInput


def _circles(svg):
    return re.findall(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)"', svg)


def test_render_is_deterministic():
    p = SetPartitionA(6, ((1, 4), (2, 3), (5,), (6,)))
    assert render_circle(p) == render_circle(p)


def test_full_block_is_a_triangle():
    p = SetPartitionA(3, ((1, 2, 3),))
    svg = render_circle(p)
    assert svg.count("<polygon") == 1
    assert "fill-opacity" in svg


def test_singletons_draw_no_chords():
    p = SetPartitionA(4, ((1,), (2,), (3,), (4,)))
    svg = render_circle(p)
    assert "<line" not in svg and "<polygon" not in svg


def test_point_one_sits_on_top():
    p = SetPartitionA(4, ((1,), (2,), (3,), (4,)))
    svg = render_circle(p, radius=50)
    xs = _circles(svg)
    # after the outline, the first point drawn is label 1
    x, y = map(float, xs[1])
    assert math.isclose(x, 80.0, abs_tol=1e-3)
    assert y < 80.0


def test_label_positions_rotate_rigidly():
    from thicket.render import _circle_points

    n, radius, cx = 6, 60.0, 90.0
    pts = _circle_points(list(range(1, n + 1)), radius, cx, cx)
    steps = 2
    ang = 2 * math.pi * steps / n
    for lab in range(1, n + 1):
        target = pts[((lab + steps - 1) % n) + 1]
        x, y = pts[lab]
        dx, dy = x - cx, y - cx
        moved = (
            cx + dx * math.cos(ang) - dy * math.sin(ang),
            cx + dx * math.sin(ang) + dy * math.cos(ang),
        )
        assert math.isclose(moved[0], target[0], abs_tol=1e-9)
        assert math.isclose(moved[1], target[1], abs_tol=1e-9)


def test_rotation_acts_as_rigid_rotation_of_chords():
    from thicket.render import _circle_points

    n, radius = 6, 60.0
    p = SetPartitionA(n, ((1, 2), (3, 6), (4, 5)))
    q = rotate_a(p, 2)
    pts = _circle_points(list(range(1, n + 1)), radius, 90.0, 90.0)

    def chords_as_labels(svg):
        found = re.findall(
            r'<line x1="([-0-9.]+)" y1="([-0-9.]+)" x2="([-0-9.]+)" y2="([-0-9.]+)"',
            svg,
        )
        out = set()
        for x1, y1, x2, y2 in found:
            ends = []
            for x, y in ((float(x1), float(y1)), (float(x2), float(y2))):
                lab = min(
                    pts,
                    key=lambda k: (pts[k][0] - x) ** 2 + (pts[k][1] - y) ** 2,
                )
                assert abs(pts[lab][0] - x) < 1e-3 and abs(pts[lab][1] - y) < 1e-3
                ends.append(lab)
            out.add(frozenset(ends))
        return out

    rotated = {
        frozenset(((lab + 1) % n) + 1 for lab in chord)
        for chord in chords_as_labels(render_circle(p, radius=radius))
    }
    assert rotated == chords_as_labels(render_circle(q, radius=radius))


def test_d_model_rendering():
    p = DPartition(5, ((1, 2), (-1, -2), (3, 4), (-3, -4), (5,), (-5,)))
    svg = render_circle(p, kind="D")
    assert "5, -5" in svg
    assert svg.count("<line") >= 4
    q = DPartition(4, ((1, 4), (-1, -4), (2,), (-2,), (3,), (-3,)))
    svg = render_circle(q, kind="D")
    assert ">+<" in svg and ">-<" in svg


A4 = SetPartitionA(4, ((1, 4), (2, 3)))
B4 = BPartition(4, ((1, 4), (-1, -4), (2,), (-2,), (3,), (-3,)))
D4 = DPartition(4, ((1, 4), (-1, -4), (2,), (-2,), (3,), (-3,)))


@pytest.mark.parametrize("p, kind", [(A4, "A"), (D4, "D")])
def test_render_circle_infers_the_model_of_its_partition(p, kind):
    assert render_circle(p) == render_circle(p, kind=kind)


@pytest.mark.parametrize("p, kind", [
    (B4, None),
    (B4, "D"),
    (B4, "A"),
    (A4, "D"),
    (D4, "A"),
    (A4, "X"),
    (D4, "X"),
    (D4, "d"),
])
def test_render_circle_rejects_a_model_it_does_not_draw(p, kind):
    # B has no centroid model here, and a kind must name the partition's model
    with pytest.raises(WrongModel) as err:
        render_circle(p, kind=kind)
    assert isinstance(err.value, InvalidInput)
    assert type(p).__name__ in str(err.value)


def test_strip_rendering_marks():
    ct = CategoryType(DynkinType("A", 5), 4, 1)
    descs = enumerate_thick(ct)
    empty = descs[0]
    full = next(d for d in descs if len(d.roots) == 15)
    window = (0, 12)
    svg_empty = render_ar_strip(empty, window, domain_width=4)
    svg_full = render_ar_strip(full, window, domain_width=4)
    assert svg_empty.count('fill="black"') == 0
    assert svg_full.count('fill="black"') == 12 * 5
    assert "stroke-dasharray" in svg_full
    txt = ascii_ar_strip(full, window)
    assert set(txt) <= {"O", ".", " ", "\n"}
    assert txt.count("O") == 60
    assert ascii_ar_strip(empty, window).count("O") == 0


def test_strip_window_limits():
    ct = CategoryType(DynkinType("A", 2), 1, 1)
    desc = enumerate_thick(ct)[0]
    with pytest.raises(WindowTooLarge):
        render_ar_strip(desc, (0, 500))
    with pytest.raises(ValueError):
        render_ar_strip(desc, (3, 3))
