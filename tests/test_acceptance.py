"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.

Each criterion is decided by named results of ``weylccr verify --suite all``
at d = 1 seed 1 and d = 2 seed 0, the reports that test_verify_golden.py pins
value by value (``conftest.verify_all`` runs them once per session).  A
criterion passes when every result it names is in both reports and passes.
Its tolerance is the bound of the rows behind it: 1e-12, ``verify.TOL`` =
1e-10 for the Gram eigenvalue (6), the GNS oracle (7) and the Bloch
time-reversal criterion (9), and 0.1 on the refinement ratio (12).  A
criterion that needs a tighter tolerance than its rows' bound must also
check their worst_value.
"""

import pytest

#: criterion -> (description, the report results that decide it)
CRITERIA = {
    1: ("Weyl laws: associativity and *-law over 1000 random triples",
        ("weyl.associativity_1000_exact", "weyl.star_antihomomorphism_exact",
         "weyl.star_laws_coefficients")),
    2: ("symplectic presentation w_z w_z' = e^{i sigma} w_{z+z'} on 500 pairs",
        ("weyl.symplectic_presentation_500_exact",)),
    3: ("tracial l2 identity within 1e-12; two-monomial bound exact",
        ("weyl.tracial_l2_identity", "weyl.tracial_norm_lower_bound_exact")),
    4: ("ergodic means: closed forms exact, box average decays like 1/L",
        ("ergodic.closed_form_projections_exact", "ergodic.box_average_zero_mode_exact",
         "ergodic.box_average_decay_bound", "ergodic.box_average_loglog_slope")),
    5: ("invariance: exact for plane-wave/character states, 1e-12 for Bloch and Zak, "
        "Fock breaks free dynamics by 0.1723",
        ("states.translation_invariance_exact", "states.bloch_lattice_invariance",
         "states.zak_double_invariance", "states.fock_not_free_dynamics_invariant")),
    6: ("positivity: Gram matrices PSD for all families and a mixture",
        ("states.gram_psd_min_eigenvalue", "states.gram_hermitian_residual")),
    7: ("GNS reconstruction matches closed form within 1e-10; "
        "rho(v_gamma) is an exact scalar",
        ("gns.bloch_reconstruction_oracle", "gns.rho_of_lattice_v_is_exact_scalar")),
    8: ("covariance: kappa shift equals Fourier-data shift within 1e-12",
        ("covariance.dual_lattice_shift",)),
    9: ("time reversal: plane wave iff p = 0, Zak iff kappa in {0, 1/2}^d, "
        "Bloch criterion matches the functional definition",
        ("tri.fixed_point_count_d2", "tri.plane_wave_iff_zero_momentum",
         "tri.zak_iff_fixed_point", "tri.bloch_criterion_matches_functional")),
    10: ("purity: Zak and plane-wave multiplicative within 1e-12, "
         "tracial fails with gap exactly 1",
         ("zak.multiplicative_on_lattice_probes", "zak.plane_wave_multiplicative",
          "zak.tracial_multiplicativity_gap_is_one")),
    11: ("irregularity: 3-adic character exactly multiplicative, witness "
         "sequence pinned at e^{4 pi i/3} with gap sqrt(3)",
         ("states.padic_character_multiplicative_exact",
          "states.padic_discontinuity_witness")),
    12: ("paths: endpoints exact and halving the grid step halves the "
         "max weak-* step within 20%",
         ("paths.endpoints_reproduced_exactly", "paths.linear_refinement_rate")),
}


def failed_results(report: dict, names) -> list:
    """One line for each of ``names`` that is missing from ``report`` or does
    not pass there, so a report cannot pass a criterion by leaving out its
    results."""
    results = {c["check"]: c for c in report["checks"]}
    failed = []
    for name in names:
        result = results.get(name)
        if result is None:
            failed.append(f"{name} missing")
        elif result["pass"] is not True:
            failed.append(f"{name} worst {result['worst_value']!r} at {result['worst_probe']!r}")
    return failed


def test_a_missing_or_failing_result_fails_its_criterion():
    report = {"checks": [
        {"check": "a", "pass": True, "worst_value": 0.0, "worst_probe": ""},
        {"check": "b", "pass": False, "worst_value": 2.0, "worst_probe": "u(1)v(0)"}]}
    assert failed_results(report, ["a"]) == []
    assert failed_results(report, ["b", "a", "c"]) == [
        "b worst 2.0 at 'u(1)v(0)'", "c missing"]
    assert failed_results({"checks": []}, ["a"]) == ["a missing"]


@pytest.mark.parametrize("number", CRITERIA, ids="{:02d}".format)
def test_criterion(number, verify_all):
    description, names = CRITERIA[number]
    failed = [f"d={d} seed={seed}: {line}" for (d, seed), (_, report) in verify_all.items()
              for line in failed_results(report, names)]
    detail = "; ".join(failed) or ", ".join(names) + " pass at " + " and ".join(
        f"d={d} seed={seed}" for d, seed in verify_all)
    print(f"[{'FAIL' if failed else 'PASS'}] criterion {number}: {description}  ({detail})")
    assert names and not failed, f"criterion {number} failed: {detail}"
