"""Robustness under random basis changes.

Conjugating every algebra by a well-conditioned random matrix preserves all
the structure theory but destroys the exact 0/1 tensors of the corpus, so
the tolerance machinery (singular-value cutoffs, the trace form's
rounding-level cut, scale floors) is actually exercised.
"""

import numpy as np
import pytest

from tpw.amenability import derivation_space, is_weakly_amenable
from tpw.arens import topological_center
from tpw.characters import enumerate_characters
from tpw.core import FiniteAlgebra, center, validate_algebra
from tpw.corpus import algebra_c2, algebra_group_z2, algebra_m2, algebra_ut2, builtin_corpus, hom_c2_diag_into_ut2
from tpw.product import AlgebraHom
from tpw.suite import RunConfig, verify_theorems

from conftest import TOL, random_unitary, rebased


def change_basis(alg, s, name):
    sinv = np.linalg.inv(s)
    c_new = np.einsum("ip,jq,ijk,rk->pqr", s, s, alg.structure, sinv)
    return FiniteAlgebra(
        name=name, basis_labels=tuple(f"f{i}" for i in range(alg.dim)), structure=c_new
    )


def random_gl(rng, n, cond_limit=20.0):
    while True:
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(s) < cond_limit:
            return s


@pytest.mark.parametrize("seed", [7, 19, 23])
def test_conjugated_pair_passes_suite(seed):
    rng = np.random.default_rng(seed)
    ut2, c2 = algebra_ut2(), algebra_c2()
    sa, sb = random_gl(rng, 3), random_gl(rng, 2)
    a = change_basis(ut2, sa, f"UT2r{seed}")
    b = change_basis(c2, sb, f"C2r{seed}")
    assert validate_algebra(a, TOL).valid
    assert validate_algebra(b, TOL).valid
    hom = AlgebraHom(
        source=b, target=a,
        matrix=np.linalg.inv(sa) @ hom_c2_diag_into_ut2(c2, ut2).matrix @ sb,
    )
    assert hom.mult_residual <= TOL
    report = verify_theorems(a, b, hom, RunConfig())
    failing = [v.claim for v in report.verdicts if v.status in ("fail", "unknown")]
    assert not failing, failing


@pytest.mark.parametrize("seed", [3, 11])
def test_conjugation_preserves_invariants(seed):
    rng = np.random.default_rng(seed)
    m2 = algebra_m2()
    m2r = change_basis(m2, random_gl(rng, 4), f"M2r{seed}")
    enum = enumerate_characters(m2r, TOL, 0)
    assert enum.complete and len(enum.characters) == 0
    space = derivation_space(m2r, TOL)
    assert (space.dim_der, space.dim_inner) == (3, 3)
    assert is_weakly_amenable(m2r, TOL)
    # Arens regularity survives the messy constants
    for side in ("left", "right"):
        assert topological_center(m2r, side, TOL).shape[1] == 4

    c2r = change_basis(algebra_c2(), random_gl(rng, 2), f"C2r{seed}")
    enum = enumerate_characters(c2r, TOL, 0)
    assert enum.complete and len(enum.characters) == 2


def test_plainly_rebased_group_algebra_keeps_its_characters():
    """A commutative tensor that is asymmetric only by rounding has no commutators."""
    z2 = algebra_group_z2()
    for seed in range(40):
        alg = rebased(z2, random_unitary(np.random.default_rng(seed), 2))
        assert len(enumerate_characters(alg, TOL, 0).characters) == 2, seed
        space = derivation_space(alg, TOL)
        assert space.dim_inner == space.dim_der == 0, seed
        assert is_weakly_amenable(alg, TOL), seed


def test_plainly_rebased_group_algebra_keeps_its_centre():
    """C[Z2] is commutative, so its centre is all of it, in any unitary basis."""
    z2 = algebra_group_z2()
    dims = [center(rebased(z2, random_unitary(np.random.default_rng(seed), 2)), TOL).shape[1]
            for seed in range(40)]
    assert dims == [2] * 40


@pytest.mark.parametrize("tol", [1e-11, 1e-9, 1e-7])
def test_plainly_rebased_zero_hom_triple_keeps_inner_amenability(tol):
    """m2-cz2-zero, rebased plainly: the inner-mean equivalences hold at every tolerance."""
    entry = next(e for e in builtin_corpus() if e.entry_id == "m2-cz2-zero")
    for seed in range(4):
        rng = np.random.default_rng(seed)
        ua, ub = random_unitary(rng, entry.algebra_a.dim), random_unitary(rng, entry.algebra_b.dim)
        a, b = rebased(entry.algebra_a, ua), rebased(entry.algebra_b, ub)
        hom = AlgebraHom(source=b, target=a, matrix=ua.conj().T @ entry.hom.matrix @ ub)
        report = verify_theorems(a, b, hom, RunConfig(tol=tol))
        claims = [v for v in report.verdicts if v.claim.startswith("09-inner/") and v.claim.endswith("equivalence")]
        assert any(v.claim == "09-inner/character-inner-amenability-equivalence" for v in claims)
        failing = [v.claim for v in claims if v.status != "pass"]
        assert not failing, (seed, failing)
