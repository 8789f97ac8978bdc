import itertools
import json

import numpy as np
import pytest

from latticeqe.lattice import LatticeBox
from latticeqe.observables import BUILTIN_OBSERVABLES, _coord1, build_observable, parity
from oracles import indices_coord1, indices_parity


def site_loop(spec: str, box: LatticeBox, q) -> list[float]:
    """Each builtin by its definition, one site (1-based, row-major) at a time."""
    s = box.sides[0]
    lo, hi = s // 4, s // 4 + s // 2
    middle = sum(lo < x1 <= hi for x1 in range(1, s + 1)) / s  # share of sites in the middle half
    out = []
    for x in itertools.product(*(range(1, n + 1) for n in box.sides)):
        out.append({
            "half-indicator": float(x[0] <= s // 2),
            "centered-half": float(lo < x[0] <= hi) - middle,
            "single-site": float(all(c == 1 for c in x)),
            "parity": float(sum(x) % 2 == 1),
            "block-constant": float((x[0] - 1) // q[0] < (s // q[0]) // 2),
        }[spec])
    return out


class TestBuiltins:
    @pytest.mark.parametrize("spec", [s for s in BUILTIN_OBSERVABLES if s != "random-diagonal"])
    @pytest.mark.parametrize("sides,q", [((7,), (1,)), ((4, 6), (2, 2)), ((6, 2, 3), (2, 1, 3))])
    def test_matches_the_site_definition(self, spec, sides, q):
        box = LatticeBox(sides)
        a = build_observable(spec, box, q)
        assert a.kind == "diagonal" and a.sup_norm <= 1.0
        assert np.allclose(a.diag(), site_loop(spec, box, q), atol=1e-15)

    def test_random_diagonal_is_seeded_and_bounded(self):
        box = LatticeBox((5, 4))
        a = build_observable("random-diagonal", box, seed=(3, 5))
        b = build_observable("random-diagonal", box, seed=(3, 5))
        assert np.array_equal(a.diag(), b.diag()) and a.sup_norm <= 1.0
        assert np.array_equal(a.diag(), np.random.default_rng([3, 5]).uniform(-1.0, 1.0, 20))
        assert not np.array_equal(a.diag(), build_observable("random-diagonal", box, seed=(3, 6)).diag())
        with pytest.raises(ValueError, match="seed key"):
            build_observable("random-diagonal", box)

    def test_block_constant_needs_dividing_periods(self):
        with pytest.raises(ValueError, match="do not divide"):
            build_observable("block-constant", LatticeBox((5,)), (2,))

    def test_unknown_name_lists_the_builtins(self):
        assert BUILTIN_OBSERVABLES == ("half-indicator", "centered-half", "single-site", "parity", "block-constant",
                                       "random-diagonal")
        with pytest.raises(ValueError) as info:
            build_observable("nonsense", LatticeBox((3,)))
        assert str(info.value) == ("unknown observable 'nonsense' (builtins: half-indicator, centered-half, "
                                   "single-site, parity, block-constant, random-diagonal)")

    @pytest.mark.parametrize("sides", [(1,), (7,), (3, 3), (4, 6), (1, 5), (2, 2, 2), (6, 2, 3), (3, 3, 3, 3),
                                       (2, 5, 1, 3)])
    def test_coordinates_without_grids_equal_the_indices_forms(self, sides):
        box = LatticeBox(sides)
        x1, oracle = _coord1(box), indices_coord1(box)
        assert x1.dtype == oracle.dtype and np.array_equal(x1, oracle)
        assert parity(box).diag().tobytes() == indices_parity(box).tobytes()


class TestJsonFile:
    def test_values_in_row_major_order(self, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps({"values": [0.5, -1.0, 0.0, 1.0]}))
        a = build_observable(str(path), LatticeBox((2, 2)))
        assert np.array_equal(a.diag(), [0.5, -1.0, 0.0, 1.0])

    @pytest.mark.parametrize("text,match", [
        ("{", "observable file"),
        ("[1, 2]", "key 'values'"),
        ('{"values": [1, 2]}', "expected 4 entries"),
        ('{"values": ["a", 1, 2, 3]}', "key 'values'"),
    ])
    def test_malformed_file_names_the_fault(self, tmp_path, text, match):
        path = tmp_path / "obs.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            build_observable(str(path), LatticeBox((2, 2)))
        assert str(path) in str(info.value)
