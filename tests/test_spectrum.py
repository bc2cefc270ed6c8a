"""Global invariants, gamma bookkeeping, semicontinuity, flat extensions."""

import random
from fractions import Fraction

import pytest

import charp.spectrum
from charp.finv import LocalRingAtPoint
from charp.gf import field_new
from charp.ideal import Ideal
from charp.poly import PolyRing
from charp.spectrum import (
    PrimeSample,
    RingComponent,
    flat_extension_check,
    gamma_data,
    global_fsig,
    global_hk,
    semicontinuity_probe,
)

from oracles import is_smooth_point


def component(p, names, srcs):
    R = PolyRing(field_new(p), tuple(names))
    return RingComponent(R, [R.parse(s) for s in srcs])


def fp_point(p):
    """The ring F_p as a 0-variable component."""
    return RingComponent(PolyRing(field_new(p), ()), [])


# -- gamma -------------------------------------------------------------------

def test_gamma_fp_times_fp():
    R = [fp_point(5), fp_point(5)]
    gd = gamma_data(R)
    assert gd.gamma == 0
    assert gd.z_components == (0, 1)
    assert gd.z_is_spec


def test_gamma_line_times_point():
    R = [component(5, ("x",), []), fp_point(5)]
    gd = gamma_data(R)
    assert gd.gamma == 1
    assert gd.z_components == (0,)
    assert not gd.z_is_spec


def test_gamma_single_domain():
    R = [component(7, ("x", "y", "z"), ["x*y - z^2"])]
    gd = gamma_data(R)
    assert gd.z_is_spec
    assert gd.dims == (2,)


def test_characteristics_must_match():
    with pytest.raises(ValueError, match="all components must share the characteristic"):
        gamma_data([fp_point(5), fp_point(7)])


def test_a_product_needs_a_component():
    with pytest.raises(ValueError, match="a presentation needs at least one component"):
        gamma_data([])


# -- global HK ---------------------------------------------------------------

def test_global_hk_product_of_points():
    R = [fp_point(5), fp_point(5)]
    res = global_hk(R, [PrimeSample(0, ()), PrimeSample(1, ())], e_max=2)
    assert res.value == 1 and res.exact


def test_global_hk_excludes_off_locus_samples():
    R = [component(5, ("x",), []), fp_point(5)]
    res = global_hk(R, [PrimeSample(0, (0,)), PrimeSample(1, ())], e_max=2)
    assert res.value == 1
    assert res.excluded == (PrimeSample(1, ()),)


def test_global_hk_quadric_max_at_origin():
    R = [component(7, ("x", "y", "z"), ["x*y - z^2"])]
    samples = [PrimeSample(0, (0, 0, 0)), PrimeSample(0, (1, 1, 1)),
               PrimeSample(0, (1, 4, 2)), PrimeSample(0, (2, 2, 5))]
    res = global_hk(R, samples, e_max=2)
    assert res.arg_sample == samples[0]
    assert abs(float(res.value) - 1.5) < 0.02
    # smooth samples give exactly 1
    for s, est in res.per_sample[1:]:
        assert est.value == 1
    # per-sample values never exceed the global max
    assert all(est.value <= res.value for _, est in res.per_sample)


def test_global_tasks_read_gamma_per_point():
    # (xz, yz) is the plane z = 0 and the line x = y = 0: gamma = 2, but the
    # local ring at (0,0,1), on the line alone, has dimension 1
    R = [component(5, ("x", "y", "z"), ["x*z", "y*z"])]
    line, plane = PrimeSample(0, (0, 0, 1)), PrimeSample(0, (1, 1, 0))
    res = global_hk(R, [line, plane], e_max=2)
    assert res.value == 1 and res.arg_sample == plane
    assert res.excluded == (line,) and [s for s, _ in res.per_sample] == [plane]
    res = global_fsig(R, [line, plane], e_max=2)
    assert res.value == 0 and res.exact and res.arg_sample is None
    assert res.note.startswith("exact 0: the local ring at (0, 0, 1) misses")


@pytest.mark.parametrize("fn", [global_hk, global_fsig])
def test_a_sample_off_its_component_is_an_error(fn):
    # the local ring of every sample is built, on a component below gamma
    # too, so a point of no component is not silently left out
    R = [component(5, ("x", "y"), ["x"]), component(5, ("x",), ["x"])]
    for bad in (PrimeSample(1, (3,)), PrimeSample(0, (1, 1))):
        with pytest.raises(ValueError, match="generator x does not vanish at"):
            fn(R, [PrimeSample(0, (0, 1)), bad], e_max=2)


@pytest.mark.parametrize("fn", [global_hk, global_fsig])
@pytest.mark.parametrize("index", [-1, 2, 5])
def test_a_sample_index_past_the_components_is_an_error(fn, index):
    # a negative index read the last component, and one past the end raised
    # a bare IndexError
    R = [component(5, ("x",), []), component(5, ("x", "y"), [])]
    with pytest.raises(ValueError, match=rf"component index {index} out of range "
                                         r"\(presentation has 2\)"):
        fn(R, [PrimeSample(index, (0, 0))], e_max=2)


def test_global_hk_needs_on_locus_sample():
    R = [component(5, ("x",), []), fp_point(5)]
    with pytest.raises(ValueError):
        global_hk(R, [PrimeSample(1, ())], e_max=2)


# -- global F-signature ------------------------------------------------------

def test_global_fsig_z_rule_exact_zero():
    R = [component(5, ("x",), []), fp_point(5)]
    res = global_fsig(R, [PrimeSample(0, (0,))], e_max=2)
    assert res.value == 0 and res.exact
    assert res.arg_sample is None


def test_global_fsig_product_of_points():
    R = [fp_point(5), fp_point(5)]
    res = global_fsig(R, [PrimeSample(0, ()), PrimeSample(1, ())], e_max=2)
    assert res.value == 1


def test_global_fsig_quadric_min_at_origin():
    R = [component(7, ("x", "y", "z"), ["x*y - z^2"])]
    samples = [PrimeSample(0, (0, 0, 0)), PrimeSample(0, (1, 1, 1)),
               PrimeSample(0, (4, 1, 2))]
    res = global_fsig(R, samples, e_max=2)
    assert res.arg_sample == samples[0]
    assert abs(float(res.value) - 0.5) < 0.01
    assert all(est.value >= res.value for _, est in res.per_sample)


def test_global_fsig_regular_domain_is_one():
    R = [component(5, ("x", "y"), [])]
    res = global_fsig(R, [PrimeSample(0, (0, 0)), PrimeSample(0, (1, 2))], e_max=2)
    assert res.value == 1 and res.exact


def test_regularity_equivalences_on_corpus():
    # all-regular samples give 1/1; a singular sample breaks both
    smooth = [component(5, ("x", "y"), [])]
    samples = [PrimeSample(0, (0, 0)), PrimeSample(0, (2, 3))]
    assert global_hk(smooth, samples, 2).value == 1
    assert global_fsig(smooth, samples, 2).value == 1
    sing = [component(5, ("x", "y"), ["x*y"])]
    samples = [PrimeSample(0, (0, 0)), PrimeSample(0, (1, 0))]
    assert global_hk(sing, samples, 2).value > 1
    assert global_fsig(sing, samples, 2).value < 1


def test_jacobian_certified_samples_give_unit_globals():
    # every sample certified smooth by the Jacobian rank test on a singular
    # presentation: the sweep sees only regular points, so both globals are 1
    comp = component(3, ("x", "y", "z"), ["x*y - z^2"])
    R = [comp]
    samples = [PrimeSample(0, (1, 1, 1)), PrimeSample(0, (1, 4 % 3, 2 % 3))]
    assert all(is_smooth_point(comp, s.point) for s in samples)
    assert global_hk(R, samples, 2).value == 1
    assert global_fsig(R, samples, 2).value == 1
    # and the known singular point is flagged by the same triage
    assert not is_smooth_point(comp, (0, 0, 0))


def test_global_ties_pick_the_first_sample():
    # every sample is smooth, so all estimates tie at 1: the extremum is
    # attained first by the first sample
    R = [component(5, ("x", "y", "z"), ["x*y - z^2"])]
    samples = [PrimeSample(0, (1, 4, 2)), PrimeSample(0, (1, 1, 1)),
               PrimeSample(0, (4, 1, 2))]
    for fn in (global_hk, global_fsig):
        res = fn(R, samples, 2)
        assert res.value == 1
        assert res.arg_sample == samples[0]


# -- semicontinuity ----------------------------------------------------------

def test_semicontinuity_quadric():
    comp = component(5, ("x", "y", "z"), ["x*y - z^2"])
    rng = random.Random(5)
    nearby = []
    while len(nearby) < 5:
        s, t = rng.randint(0, 4), rng.randint(0, 4)
        if (s, t) != (0, 0):
            nearby.append(((s * s) % 5, (t * t) % 5, (s * t) % 5))
    rep = semicontinuity_probe(comp, (0, 0, 0), nearby, e=1)
    assert rep.ok
    assert rep.special[0] == (0, 0, 0)
    assert rep.special[1].normalized > 1
    assert [s for s, _ in rep.nearby] == nearby
    for _, rec in rep.nearby:
        assert rec.normalized == 1  # smooth rational points


def test_semicontinuity_regular_constant():
    rep = semicontinuity_probe(component(5, ("x", "y"), []), (0, 0), [(1, 2)], e=1)
    assert rep.ok and rep.special[1].normalized == 1


def test_semicontinuity_e0():
    # lambda_e is defined for e >= 1 only, as a job's `e` key requires
    with pytest.raises(ValueError, match="e must be at least 1"):
        semicontinuity_probe(component(5, ("x", "y"), ["x*y"]), (0, 0), [(1, 0)], e=0)


def test_semicontinuity_rejects_an_empty_nearby():
    # with nothing compared, "holds on the sample" would be vacuous
    with pytest.raises(ValueError, match="at least one nearby sample"):
        semicontinuity_probe(component(5, ("x", "y"), ["x*y"]), (0, 0), [], e=1)


def test_semicontinuity_compares_raw_lambda_across_local_dimensions():
    # a plane and a doubled line over F_3: the origin has d = 2 and (1,0,0)
    # has d = 1, so the normalized values, 35/27 against 3 at e = 2, are not
    # comparable, but the raw lambda_e is ordered with no equidimensionality
    comp = component(3, ("x", "y", "z"), ["x*y^2", "x*y*z", "x*z^2"])
    for e, lams in [(1, (15, 9)), (2, (105, 27))]:
        rep = semicontinuity_probe(comp, (0, 0, 0), [(1, 0, 0)], e)
        assert (rep.special[1].lam, rep.nearby[0][1].lam) == lams
        assert rep.ok and rep.note == "upper semicontinuity holds on the sample"


def test_semicontinuity_pass_off_a_graded_origin_says_no_theorem_orders_the_points():
    rep = semicontinuity_probe(component(3, ("x", "y", "z"), ["x*y - z^2"]),
                               (1, 1, 1), [(2, 2, 1)], e=1)
    assert rep.ok and "no theorem orders the points" in rep.note


_CUBIC_CONE = (("x", "y", "z", "w"), ["x*z - y^2", "y*w - z^2", "x*w - y*z"])
_QUADRIC3 = component(3, ("x", "y", "z"), ["x*y - z^2"])


@pytest.mark.parametrize("comp, nearby, special, blamed", [
    # the origin of a component whose generators are homogeneous: a grading
    # orders it above every point, with no hypothesis declared
    (_QUADRIC3, (1, 1, 1), (0, 0, 0), True),
    (component(3, *_CUBIC_CONE), (1, 1, 1, 1), (0, 0, 0, 0), True),
    # the Whitney umbrella is homogeneous only for weights (1, 2, 2), which
    # the probe does not detect
    (component(3, ("x", "y", "z"), ["x^2*y - z^2"]), (0, 1, 0), (0, 0, 0), False),
    # a smooth special point
    (_QUADRIC3, (2, 2, 1), (1, 1, 1), False),
])
def test_a_violation_blames_the_engine_only_on_a_certified_component(
        monkeypatch, comp, nearby, special, blamed):
    real = charp.spectrum.hk_function

    def inflated(L, e):  # a nearby value above the special one
        rec = real(L, e)
        return rec._replace(lam=rec.lam + 10) if L.point == nearby else rec

    monkeypatch.setattr(charp.spectrum, "hk_function", inflated)
    rep = semicontinuity_probe(comp, special, [nearby], e=1)
    assert not rep.ok
    assert ("engine bug" in rep.note) == blamed
    assert rep.note.endswith(f"no theorem orders {special} against {nearby}") == (not blamed)


# -- smooth triage -----------------------------------------------------------

def test_jacobian_triage():
    c = component(5, ("x", "y", "z"), ["x*y - z^2"])
    assert not is_smooth_point(c, (0, 0, 0))
    assert is_smooth_point(c, (1, 1, 1))
    assert is_smooth_point(c, (1, 4, 2))
    assert is_smooth_point(component(5, ("x", "y"), []), (3, 4))


# -- flat extension ----------------------------------------------------------

def test_flat_extension_quadric():
    R = PolyRing(field_new(5), ("x", "y", "z"))
    L = LocalRingAtPoint(Ideal(R, [R.parse("x*y - z^2")]), (0, 0, 0))
    rep = flat_extension_check(L, 1, 2)
    assert rep.ok
    assert [hr.e for (hr, _), _ in rep.rows] == [1, 2]
    for (hr, sr), (ht, st) in rep.rows:
        assert ht.lam == hr.lam * hr.q
        assert sr.s_e == st.s_e


def test_flat_extension_node_and_regular():
    R = PolyRing(field_new(3), ("x", "y"))
    L = LocalRingAtPoint(Ideal(R, [R.parse("x*y")]), (0, 0))
    rep = flat_extension_check(L, 1, 2)
    assert rep.ok
    R2 = PolyRing(field_new(5), ("x",))
    L2 = LocalRingAtPoint(Ideal(R2, []), (0,))
    rep2 = flat_extension_check(L2, 2, 2)
    assert rep2.ok
    for (_, sr), (_, st) in rep2.rows:
        assert sr.s_e == st.s_e == 1


def test_flat_extension_pair_version():
    R = PolyRing(field_new(5), ("x", "y"))
    L = LocalRingAtPoint(Ideal(R, []), (0, 0))
    a = Ideal(R, (R.parse("x"),))
    rep = flat_extension_check(L, 1, 2, pair=(a, Fraction(1, 2)))
    assert rep.ok
    assert [(pr.e, pt.e) for pr, pt in rep.pair_rows] == [(1, 1), (2, 2)]
    assert all(pr.s_e == pt.s_e for pr, pt in rep.pair_rows)


def test_flat_extension_avoids_name_collisions():
    R = PolyRing(field_new(5), ("t1", "t2"))
    L = LocalRingAtPoint(Ideal(R, [R.parse("t1*t2")]), (0, 0))
    rep = flat_extension_check(L, 1, 1)
    assert rep.ok
