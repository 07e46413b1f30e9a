"""Benzene carbon-ring geometries for the three studied distortions.

All coordinates are planar (z = 0) in Angstrom. Every carbon keeps its
hydrogen at 1.09 A, along the external bisector of the two C-C bond
directions at that carbon in distortions 1 and 2 (radially outward on the
regular hexagon). Distortion 3 moves each C3H3 triplet rigidly, hydrogens
included, so its C-H bonds keep their equilibrium directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CC_EQUILIBRIUM = 1.41   # A, equilibrium carbon-carbon distance
CH_DISTANCE = 1.09      # A, fixed carbon-hydrogen distance


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class MoleculeGeometry:
    atoms: tuple[tuple[str, float, float, float], ...]
    label: str

    def to_xyz(self) -> str:
        lines = [str(len(self.atoms)), self.label]
        for el, x, y, z in self.atoms:
            lines.append(f"{el} {x:.6f} {y:.6f} {z:.6f}")
        return "\n".join(lines) + "\n"

    def coordinates(self, element: str | None = None) -> np.ndarray:
        return np.array([[x, y, z] for el, x, y, z in self.atoms
                         if element is None or el == element])


def _hexagon_carbons(side: float) -> np.ndarray:
    # regular hexagon: circumradius equals the side length
    angles = np.arange(6) * np.pi / 3.0
    return side * np.stack([np.cos(angles), np.sin(angles),
                            np.zeros(6)], axis=1)


def _bisector_hydrogens(carbons: np.ndarray,
                        neighbors: list[tuple[int, int]]) -> np.ndarray:
    hydro = np.zeros_like(carbons)
    for i, (a, b) in enumerate(neighbors):
        u1 = carbons[a] - carbons[i]
        u2 = carbons[b] - carbons[i]
        u1 /= np.linalg.norm(u1)
        u2 /= np.linalg.norm(u2)
        d = -(u1 + u2)
        d /= np.linalg.norm(d)
        hydro[i] = carbons[i] + CH_DISTANCE * d
    return hydro


def _assemble(carbons: np.ndarray, hydrogens: np.ndarray,
              label: str) -> MoleculeGeometry:
    atoms = [("C", *map(float, c)) for c in carbons]
    atoms += [("H", *map(float, h)) for h in hydrogens]
    return MoleculeGeometry(tuple(atoms), label)


_RING_NEIGHBORS = [((i - 1) % 6, (i + 1) % 6) for i in range(6)]


def distortion1(r1: float) -> MoleculeGeometry:
    """Uniform deformation: regular hexagon with C-C distance r1."""
    if not 0 < r1 < np.inf:
        raise GeometryError(f"r1 must be positive and finite, got {r1}")
    carbons = _hexagon_carbons(r1)
    hydrogens = carbons * (1.0 + CH_DISTANCE / r1)
    return _assemble(carbons, hydrogens, f"distortion=1 param={r1:g}")


def distortion2(r2: float) -> MoleculeGeometry:
    """Two opposite fixed-length sides separated by r2.

    The side carbons sit at (+-1.41/2, +-r2/2); the two lone carbons keep
    their equilibrium lateral offset (+-1.41, 0) on the midline.
    """
    if not 0 < r2 < np.inf:
        raise GeometryError(f"r2 must be positive and finite, got {r2}")
    half_side = CC_EQUILIBRIUM / 2.0
    carbons = np.array([
        [CC_EQUILIBRIUM, 0.0, 0.0],
        [half_side, r2 / 2.0, 0.0],
        [-half_side, r2 / 2.0, 0.0],
        [-CC_EQUILIBRIUM, 0.0, 0.0],
        [-half_side, -r2 / 2.0, 0.0],
        [half_side, -r2 / 2.0, 0.0],
    ])
    hydrogens = _bisector_hydrogens(carbons, _RING_NEIGHBORS)
    return _assemble(carbons, hydrogens, f"distortion=2 param={r2:g}")


def distortion3(r3: float) -> MoleculeGeometry:
    """Two rigid C3H3 triplets slid apart by r3 along the cut line.

    The triplets are ring positions {0, 1, 2} and {3, 4, 5} of the
    equilibrium hexagon; the slide axis runs through the midpoints of
    the two cut bonds (2-3 and 5-0).
    """
    if not 0 <= r3 < np.inf:
        raise GeometryError(f"r3 must be non-negative and finite, got {r3}")
    carbons = _hexagon_carbons(CC_EQUILIBRIUM)
    hydrogens = carbons * (1.0 + CH_DISTANCE / CC_EQUILIBRIUM)
    m1 = 0.5 * (carbons[2] + carbons[3])
    m2 = 0.5 * (carbons[5] + carbons[0])
    axis = m2 - m1
    axis /= np.linalg.norm(axis)
    shift = 0.5 * r3 * axis
    carbons = carbons.copy()
    hydrogens = hydrogens.copy()
    carbons[:3] += shift
    hydrogens[:3] += shift
    carbons[3:] -= shift
    hydrogens[3:] -= shift
    return _assemble(carbons, hydrogens, f"distortion=3 param={r3:g}")


DISTORTIONS = {1: distortion1, 2: distortion2, 3: distortion3}
