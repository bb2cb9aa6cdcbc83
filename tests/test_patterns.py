import numpy as np
import pytest

import blowuplab.bvp as bvp
import blowuplab.patterns as pat
from blowuplab.model import ProblemParams
from blowuplab.patterns import FamilySpec, MultiIndex

N02 = ProblemParams(0.2, 1.2, 1e-2)


class TestMultiIndex:
    def test_printing(self):
        mi = MultiIndex(((1, 2), (0, 1), (-1, 2)))
        assert str(mi) == "{+2,1,-2}"

    def test_flip_and_reverse(self):
        mi = MultiIndex(((1, 2), (0, 1), (-1, 2)))
        assert str(mi.flipped()) == "{-2,1,+2}"
        assert str(mi.reversed()) == "{-2,1,+2}"

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiIndex(((2, 1),))
        with pytest.raises(ValueError):
            MultiIndex(((1, 0),))
        with pytest.raises(ValueError):
            MultiIndex(((1, 2), (1, 1)))


class TestClassify:
    def test_zero_profile_empty_index(self):
        mesh = bvp.Mesh.uniform(-20.0, 20.0, 400)
        prof = bvp.Profile(mesh, np.zeros(401), N02, "dirichlet-far",
                           converged=True)
        assert pat.classify(prof).tokens == ()

    def test_first_pattern(self, basic_family):
        assert str(pat.classify(basic_family[0])) == "{+2}"

    def test_dipole(self, basic_family):
        assert str(pat.classify(basic_family[1])) in ("{-2,1,+2}", "{+2,1,-2}")

    def test_unconverged_rejected(self):
        mesh = bvp.Mesh.uniform(-20.0, 20.0, 400)
        prof = bvp.Profile(mesh, np.zeros(401), N02, "dirichlet-far")
        with pytest.raises(ValueError):
            pat.classify(prof)

    def test_negation_flips_tokens(self, basic_family):
        for l, prof in basic_family.items():
            neg = prof.replace(values=-prof.values)
            assert pat.classify(neg).tokens == pat.classify(prof).flipped().tokens

    def test_reflection_reverses_tokens(self, basic_family):
        full = basic_family[1].full_extension()
        refl = full.replace(values=full.values[::-1])
        assert pat.classify(refl).tokens == \
            pat.classify(basic_family[1]).reversed().tokens

    def test_mesh_refinement_invariance(self, basic_family):
        for l, prof in basic_family.items():
            full = prof.full_extension()
            fine_mesh = bvp.Mesh.uniform(full.mesh.nodes[0],
                                         full.mesh.nodes[-1],
                                         2 * full.mesh.m)
            fine_vals = np.interp(fine_mesh.nodes, full.mesh.nodes, full.values)
            fine = bvp.Profile(fine_mesh, fine_vals, full.params,
                               "dirichlet-far", converged=True)
            assert pat.classify(fine).tokens == pat.classify(prof).tokens


class TestTransversalZeros:
    @pytest.mark.parametrize("l", [0, 1, 2, 3])
    def test_basic_family_count(self, basic_family, l):
        assert pat.transversal_zeros(basic_family[l]) == l

    def test_unconverged_rejected(self):
        mesh = bvp.Mesh.uniform(-20.0, 20.0, 400)
        prof = bvp.Profile(mesh, np.ones(401), N02, "dirichlet-far")
        with pytest.raises(ValueError):
            pat.transversal_zeros(prof)


class TestFamilySpec:
    def test_parity_validation(self):
        with pytest.raises(ValueError):
            FamilySpec("glue_pp", 3)
        with pytest.raises(ValueError):
            FamilySpec("glue_mp", 2)
        with pytest.raises(ValueError):
            FamilySpec("osc_plus", 3)
        with pytest.raises(ValueError):
            FamilySpec("custom")
        FamilySpec("glue_pp", 0)
        FamilySpec("glue_mp", 1)


class TestGuessFactory:
    def test_basic0_bump(self, half_mesh):
        g = pat.guess_factory(FamilySpec("basic", 0, n=0.2), half_mesh, N02)
        assert g.bc == "symmetry"
        assert g.values[0] == np.max(g.values)
        assert 0.8 <= g.sup_norm <= 1.5
        assert not g.converged

    def test_bc_rows_pinned(self, half_mesh, full_mesh, f0_profile):
        cases = [
            (FamilySpec("basic", 0, n=0.2), half_mesh, None),
            (FamilySpec("basic", 1, n=0.2), half_mesh, None),
            (FamilySpec("glue_pp", 2, separation=9.0, n=0.2), full_mesh,
             f0_profile),
            (FamilySpec("glue_mp", 1, n=0.2), full_mesh, f0_profile),
        ]
        for spec, mesh, tmpl in cases:
            g = pat.guess_factory(spec, mesh, N02, template=tmpl)
            assert g.values[-1] == 0.0
            if g.bc in ("dirichlet-far", "antisymmetry"):
                assert g.values[0] == 0.0

    def test_antisymmetric_guess_vanishes_at_origin(self, half_mesh):
        g = pat.guess_factory(FamilySpec("basic", 1, n=0.2), half_mesh, N02)
        assert g.bc == "antisymmetry"
        assert g.values[0] == 0.0

    def test_glue_requires_template(self, full_mesh):
        with pytest.raises(ValueError, match="template"):
            pat.guess_factory(FamilySpec("glue_pp", 2, n=0.2), full_mesh, N02)

    def test_non_interacting_limit(self, full_mesh, f0_profile):
        # far-separated pp guess is exactly the sum of two shifted copies
        spec = FamilySpec("glue_pp", 0, separation=30.0, n=0.2)
        g = pat.guess_factory(spec, full_mesh, N02, template=f0_profile)
        T = pat._template_fn(f0_profile)
        y = full_mesh.nodes
        expected = bvp._project_bc(T(y + 30.0) + T(y - 30.0), "dirichlet-far")
        assert np.array_equal(g.values, expected)

    def test_glue_pp_converges_to_plus2k2(self, full_mesh, f0_profile):
        spec = FamilySpec("glue_pp", 2, separation=9.0, n=0.2)
        g = pat.guess_factory(spec, full_mesh, N02, template=f0_profile)
        sol = bvp.solve_profile(N02, g)
        assert sol.converged
        assert str(pat.classify(sol)) == "{+2,2,+2}"

    def test_glue_mp_converges(self, half_mesh, f0_profile):
        # separation is the per-copy offset y0: copies sit at -y0 and +y0
        spec = FamilySpec("glue_mp", 1, separation=3.75, n=0.2)
        g = pat.guess_factory(spec, half_mesh, N02, template=f0_profile)
        assert g.bc == "antisymmetry"
        sol = bvp.solve_profile(N02, g)
        assert sol.converged
        assert str(pat.classify(sol)) in ("{-2,1,+2}", "{+2,1,-2}")

    def test_osc_plus_converges(self, f4_profile):
        assert str(pat.classify(f4_profile)) == "{+4}"

    def test_q_type_converges_with_plateau(self):
        # q-profiles live on a reduced domain: the plateau region supports
        # modes growing like |y|^(1/beta) toward the left boundary
        params = ProblemParams(0.2, 1.5, 1e-2)
        y0 = 4.0
        mesh = bvp.Mesh.uniform(y0 - 6.0, y0 + 46.0, 2080)
        hm = bvp.Mesh.uniform(0.0, 50.0, 2000)
        template = bvp.solve_profile(
            params, pat.guess_factory(FamilySpec("basic", 0, n=0.2), hm, params))
        g = pat.guess_factory(FamilySpec("q_type", separation=y0, n=0.2),
                              mesh, params, template=template)
        assert g.bc == "q-plateau"
        sol = bvp.solve_profile(params, g)
        assert sol.converged
        left = sol.mesh.nodes < y0 - 2.0
        assert np.max(np.abs(sol.values[left] - 1.0)) <= 0.11
        right = sol.mesh.nodes > y0 + 10.0
        assert np.max(np.abs(sol.values[right])) <= 1e-2
