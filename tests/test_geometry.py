import numpy as np
import pytest

from vqesim.geometry import (CC_EQUILIBRIUM, CH_DISTANCE, GeometryError,
                             MoleculeGeometry, distortion1, distortion2,
                             distortion3)


def ring_cc_distances(carbons):
    return [np.linalg.norm(carbons[(i + 1) % 6] - carbons[i])
            for i in range(6)]


def ch_matching_distances(geom):
    c = geom.coordinates("C")
    h = geom.coordinates("H")
    out = []
    for ci in c:
        out.append(min(np.linalg.norm(ci - hj) for hj in h))
    return out


def best_rigid_rmsd(a, b):
    """RMSD of point clouds after optimal rotation/translation (Kabsch)."""
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    u, _, vt = np.linalg.svd(a.T @ b)
    d = np.sign(np.linalg.det(u @ vt))
    r = u @ np.diag([1, 1, d]) @ vt
    return float(np.sqrt(np.mean(np.sum((a @ r - b) ** 2, axis=1))))


# ---------------------------------------------------------------------------
# distortion 1

def test_d1_equilibrium_circumradius():
    geom = distortion1(1.41)
    radii = np.linalg.norm(geom.coordinates("C"), axis=1)
    np.testing.assert_allclose(radii, 1.41, atol=1e-9)


def test_d1_all_cc_distances_equal_parameter():
    for r1 in (1.0, 1.41, 2.5):
        carbons = distortion1(r1).coordinates("C")
        np.testing.assert_allclose(ring_cc_distances(carbons), r1, atol=1e-9)


def test_d1_ch_distances():
    for r1 in (1.2, 1.41, 3.0):
        np.testing.assert_allclose(ch_matching_distances(distortion1(r1)),
                                   CH_DISTANCE, atol=1e-9)


def test_d1_sixfold_rotation_symmetry():
    carbons = distortion1(1.41).coordinates("C")
    th = np.pi / 3
    rot = np.array([[np.cos(th), -np.sin(th), 0],
                    [np.sin(th), np.cos(th), 0], [0, 0, 1]])
    rotated = carbons @ rot.T
    for p in rotated:
        assert min(np.linalg.norm(p - q) for q in carbons) < 1e-9


def test_d1_rejects_nonpositive():
    with pytest.raises(GeometryError):
        distortion1(0.0)


# ---------------------------------------------------------------------------
# distortion 2

def test_d2_fixed_side_lengths():
    for r2 in (1.5, np.sqrt(3) * 1.41, 4.0):
        c = distortion2(r2).coordinates("C")
        assert abs(np.linalg.norm(c[1] - c[2]) - CC_EQUILIBRIUM) < 1e-9
        assert abs(np.linalg.norm(c[4] - c[5]) - CC_EQUILIBRIUM) < 1e-9


def test_d2_side_separation_is_parameter():
    for r2 in (1.5, 2.8):
        c = distortion2(r2).coordinates("C")
        mid_top = 0.5 * (c[1] + c[2])
        mid_bot = 0.5 * (c[4] + c[5])
        assert abs(np.linalg.norm(mid_top - mid_bot) - r2) < 1e-9


def test_d2_lone_carbons_on_midline():
    for r2 in (1.5, 2.8):
        c = distortion2(r2).coordinates("C")
        assert abs(c[0][1]) < 1e-12 and abs(c[3][1]) < 1e-12
        assert abs(abs(c[0][0]) - CC_EQUILIBRIUM) < 1e-12


def test_d2_equilibrium_recovers_hexagon():
    a = distortion2(np.sqrt(3) * CC_EQUILIBRIUM).coordinates()
    b = distortion1(CC_EQUILIBRIUM).coordinates()
    assert best_rigid_rmsd(a, b) < 1e-9


def test_d2_ch_distances():
    for r2 in (1.8, 3.1):
        np.testing.assert_allclose(ch_matching_distances(distortion2(r2)),
                                   CH_DISTANCE, atol=1e-9)


def test_d2_rejects_nonpositive():
    with pytest.raises(GeometryError):
        distortion2(-1.0)


# ---------------------------------------------------------------------------
# distortion 3

def test_d3_zero_is_equilibrium_exactly():
    a = distortion3(0.0).coordinates()
    b = distortion1(CC_EQUILIBRIUM).coordinates()
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_d3_fragments_are_rigid():
    ref = distortion3(0.0).coordinates("C")
    for r3 in (0.5, 2.0):
        c = distortion3(r3).coordinates("C")
        for frag in (slice(0, 3), slice(3, 6)):
            ref_d = [np.linalg.norm(ref[frag][i] - ref[frag][j])
                     for i in range(3) for j in range(i)]
            got_d = [np.linalg.norm(c[frag][i] - c[frag][j])
                     for i in range(3) for j in range(i)]
            np.testing.assert_allclose(got_d, ref_d, atol=1e-9)


def test_d3_moves_each_hydrogen_with_its_carbon():
    # the triplets are rigid, hydrogens included: no C-H vector turns
    def ch_vectors(geom):
        return geom.coordinates("H") - geom.coordinates("C")

    ref = ch_vectors(distortion3(0.0))
    for r3 in (0.4, 1.6, 3.0):
        np.testing.assert_allclose(ch_vectors(distortion3(r3)), ref,
                                   rtol=0, atol=1e-12)


def test_d3_centroid_separation_slope():
    seps = []
    for r3 in (0.0, 1.0, 2.0):
        c = distortion3(r3).coordinates("C")
        seps.append(np.linalg.norm(c[:3].mean(axis=0) - c[3:].mean(axis=0)))
    # translation is along the cut axis, so the axis-projected separation
    # grows with slope exactly 1; centroids also start offset perpendicular
    # to that axis, hence the hypotenuse form
    base = seps[0]
    for r3, s in zip((0.0, 1.0, 2.0), seps):
        assert abs(s - np.hypot(base, r3)) < 1e-9


def test_d3_ch_distances():
    np.testing.assert_allclose(ch_matching_distances(distortion3(1.3)),
                               CH_DISTANCE, atol=1e-9)


def test_d3_rejects_negative():
    with pytest.raises(GeometryError):
        distortion3(-0.1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "minus_inf"])
@pytest.mark.parametrize("builder", [distortion1, distortion2, distortion3])
def test_non_finite_parameter_is_rejected(builder, value):
    # NaN passes a plain "r <= 0" check and would write nan coordinates
    with pytest.raises(GeometryError):
        builder(value)


# ---------------------------------------------------------------------------
# shared properties and XYZ format

def test_all_distortions_coincide_at_equilibrium():
    eq1 = distortion1(CC_EQUILIBRIUM).coordinates()
    eq2 = distortion2(np.sqrt(3) * CC_EQUILIBRIUM).coordinates()
    eq3 = distortion3(0.0).coordinates()
    assert best_rigid_rmsd(eq1, eq2) < 1e-9
    assert best_rigid_rmsd(eq1, eq3) < 1e-9


def test_geometries_are_planar():
    for geom in (distortion1(1.2), distortion2(2.0), distortion3(1.0)):
        assert np.max(np.abs(geom.coordinates()[:, 2])) < 1e-12


def test_ch_pairing_is_perfect_matching():
    for geom in (distortion1(1.7), distortion2(2.4), distortion3(0.8)):
        c = geom.coordinates("C")
        h = geom.coordinates("H")
        assert len(c) == len(h) == 6
        pairs = set()
        for i, ci in enumerate(c):
            d = [np.linalg.norm(ci - hj) for hj in h]
            j = int(np.argmin(d))
            assert abs(d[j] - CH_DISTANCE) < 1e-6
            pairs.add(j)
        assert len(pairs) == 6


def test_xyz_format():
    text = distortion1(1.41).to_xyz()
    lines = text.splitlines()
    assert lines[0] == "12"
    assert lines[1] == "distortion=1 param=1.41"
    assert len(lines) == 14
    el, x, y, z = lines[2].split()
    assert el == "C"
    assert x == "1.410000" and z == "0.000000"


def test_xyz_deterministic():
    assert distortion3(0.77).to_xyz() == distortion3(0.77).to_xyz()
