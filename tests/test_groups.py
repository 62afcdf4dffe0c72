import numpy as np
import pytest

from reference import algebra_defect, project_algebra
from ymflow.groups import (
    SU2,
    U1,
    GroupSpec,
    bracket,
    exp_map,
    frobenius_inner,
    standard_basis,
    structure_constants,
    unitarity_defect,
    unitarize,
)
from ymflow.verify import jacobi_gap


def test_group_spec_dimensions():
    assert U1.algebra_dim == 1
    assert SU2.algebra_dim == 3
    assert GroupSpec("su", 3).algebra_dim == 8
    assert GroupSpec("u", 2).algebra_dim == 4
    with pytest.raises(ValueError):
        GroupSpec("so", 3)
    with pytest.raises(ValueError):
        GroupSpec("su", 1)


def test_group_spec_labels():
    assert GroupSpec.from_label("u1") == U1
    assert GroupSpec.from_label("su2") == SU2
    assert GroupSpec.from_label("u3") == GroupSpec("u", 3)
    with pytest.raises(ValueError):
        GroupSpec.from_label("banana")


def test_u1_basis_is_i():
    basis = standard_basis(U1)
    assert basis.shape == (1, 1, 1)
    assert basis[0, 0, 0] == 1j


@pytest.mark.parametrize("spec", [U1, SU2, GroupSpec("su", 3), GroupSpec("u", 2)])
def test_basis_orthonormal_and_in_algebra(spec):
    basis = standard_basis(spec)
    assert basis.shape[0] == spec.algebra_dim
    gram = np.array(
        [[frobenius_inner(x, y) for y in basis] for x in basis]
    )
    assert np.max(np.abs(gram - np.eye(spec.algebra_dim))) < 1e-12
    for x in basis:
        assert algebra_defect(x, spec) < 1e-12


def test_u2_basis_spans_skew_hermitian():
    basis = standard_basis(GroupSpec("u", 2))
    vectors = basis.reshape(4, -1)
    stacked = np.concatenate([vectors.real, vectors.imag], axis=1)
    assert np.linalg.matrix_rank(stacked) == 4


def test_bracket_antisymmetry_and_abelian():
    rng = np.random.default_rng(0)
    basis = standard_basis(SU2)
    x = np.einsum("a,aij->ij", rng.normal(size=3), basis)
    y = np.einsum("a,aij->ij", rng.normal(size=3), basis)
    assert np.max(np.abs(bracket(x, x))) == 0.0
    assert np.max(np.abs(bracket(x, y) + bracket(y, x))) < 1e-13
    u = standard_basis(U1)[0]
    assert np.max(np.abs(bracket(0.3 * u, 1.7 * u))) == 0.0


def test_bracket_su2_matches_matrix_products():
    basis = standard_basis(SU2)
    for a in range(3):
        for b in range(3):
            direct = basis[a] @ basis[b] - basis[b] @ basis[a]
            assert np.max(np.abs(bracket(basis[a], basis[b]) - direct)) == 0.0
    # distinct basis brackets are proportional to the third element
    br = bracket(basis[0], basis[1])
    coeff = frobenius_inner(basis[2], br)
    assert np.max(np.abs(br - coeff * basis[2])) < 1e-13
    assert abs(abs(coeff) - np.sqrt(2.0)) < 1e-13


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        bracket(np.eye(2), np.eye(3))


def test_jacobi_identity():
    # ten triples of su(3) elements, as three (10, 3, 3) stacks
    coeffs = np.random.default_rng(1).normal(size=(10, 3, 8))
    x, y, z = np.einsum("kta,aij->tkij", coeffs, standard_basis(GroupSpec("su", 3)))
    assert jacobi_gap(x, y, z) < 1e-12


def test_structure_constants_reproduce_brackets():
    for spec in (U1, SU2, GroupSpec("su", 3)):
        basis = standard_basis(spec)
        f = structure_constants(spec)
        for a in range(spec.algebra_dim):
            for b in range(spec.algebra_dim):
                rebuilt = np.einsum("c,cij->ij", f[a, b], basis)
                direct = bracket(basis[a], basis[b])
                assert np.max(np.abs(rebuilt - direct)) < 1e-12
    assert np.max(np.abs(structure_constants(U1))) == 0.0


def test_exp_map_zero_and_u1_scalar():
    assert np.max(np.abs(exp_map(np.zeros((2, 2))) - np.eye(2))) < 1e-15
    theta = np.pi / 3
    got = exp_map(np.array([[1j * theta]]))
    assert abs(got[0, 0] - np.exp(1j * theta)) < 1e-15


def test_exp_map_su2_diagonal_eigendecomposition():
    theta = 0.83
    x = theta * np.diag([1j, -1j])
    got = exp_map(x)
    want = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    assert np.max(np.abs(got - want)) < 1e-14


def test_exp_map_inverse_up_to_norm_ten():
    rng = np.random.default_rng(2)
    basis = standard_basis(SU2)
    for scale in (0.1, 1.0, 5.0, 10.0 / np.sqrt(2)):
        co = rng.normal(size=3)
        co *= scale / np.linalg.norm(co)
        x = np.einsum("a,aij->ij", co, basis)
        e = exp_map(x)
        assert unitarity_defect(e) < 1e-10
        assert np.max(np.abs(e @ exp_map(-x) - np.eye(2))) < 1e-10


def test_exp_map_batched_matches_single():
    rng = np.random.default_rng(3)
    basis = standard_basis(SU2)
    xs = np.einsum("pa,aij->pij", rng.normal(size=(6, 3)), basis)
    batched = exp_map(xs)
    for i in range(6):
        assert np.max(np.abs(batched[i] - exp_map(xs[i]))) < 1e-13


def test_project_algebra_idempotent_and_kills_hermitian():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for spec in (SU2, GroupSpec("u", 2)):
        p = project_algebra(m, spec)
        assert np.max(np.abs(project_algebra(p, spec) - p)) < 1e-14
        assert algebra_defect(p, spec) < 1e-13
    h = rng.normal(size=(2, 2))
    h = h + h.T
    assert np.max(np.abs(project_algebra(h, GroupSpec("u", 2)))) < 1e-14


def test_project_algebra_is_nearest_point():
    # random-search oracle on one 2x2 instance: no nearby algebra element
    # is closer in Frobenius norm than the projection
    rng = np.random.default_rng(5)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    spec = GroupSpec("u", 2)
    p = project_algebra(m, spec)
    base = np.linalg.norm(m - p)
    basis = standard_basis(spec)
    for _ in range(500):
        delta = np.einsum("a,aij->ij", rng.normal(size=4) * 0.3, basis)
        assert np.linalg.norm(m - (p + delta)) >= base - 1e-12


def test_frobenius_inner_examples_and_oracle():
    basis = standard_basis(SU2)
    assert abs(frobenius_inner(basis[0], basis[0]) - 1.0) < 1e-14
    assert abs(frobenius_inner(basis[0], basis[1])) < 1e-14
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    y = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    entrywise = np.sum(np.conj(x) * y).real
    assert abs(frobenius_inner(x, y) - entrywise) < 1e-13


def test_unitarize_repairs_drift():
    rng = np.random.default_rng(7)
    basis = standard_basis(SU2)
    u = exp_map(np.einsum("a,aij->ij", rng.normal(size=3), basis))
    drifted = u + 1e-6 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    fixed = unitarize(drifted, SU2)
    assert unitarity_defect(fixed) < 1e-12
    assert abs(np.linalg.det(fixed) - 1.0) < 1e-12
    assert np.max(np.abs(fixed - u)) < 1e-5
