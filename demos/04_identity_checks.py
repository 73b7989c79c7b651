"""The verification harness, check by check.

Every analytic claim about the construction is re-derived from the raw bits
and compared exactly: the closed-form spectrum, the S(2)T(2^-1) product
congruence (which is sensitive to the sign of b), the small-factor gcds, and
the complexity bounds. Reports carry the integer witnesses, so a failure is
reproducible on its own.
"""

import dataclasses

from twoadic import (
    check_autocorrelation_spectrum,
    check_complexity_bounds,
    check_coprimality_facts,
    check_product_congruence,
    check_small_factor_gcds,
    construction_params,
    hu_identity_check,
    run_all,
    su_sequence,
)

params = construction_params(13, 2, (0, 1, 0, 1))

for check in (check_autocorrelation_spectrum, check_product_congruence,
              check_small_factor_gcds, check_complexity_bounds):
    report = check(params)
    print(f"{report.check}: {'PASS' if report.passed else 'FAIL'}")
    for key, value in report.witnesses.items():
        print(f"    {key} = {value}")

print("coprimality-facts p=13:", check_coprimality_facts(13).passed)

# the product identity holds for arbitrary sequences, not just constructed ones
s = su_sequence(params)
print("\nproduct identity on the instance:", hu_identity_check(s).holds)

# both closed forms depend on the sign of b, which quartic_decomposition reads
# from Jacobi's congruence: negate it and the spectrum check fails, naming the
# first shift where the bits and the closed form differ
wrong = dataclasses.replace(
    params, quartic=dataclasses.replace(params.quartic, b=-params.quartic.b))
spectrum = check_autocorrelation_spectrum(wrong, sequence=s)
print("spectrum with negated b: passed =", spectrum.passed,
      " first_mismatch_tau =", spectrum.witnesses["first_mismatch_tau"],
      " b_used =", spectrum.witnesses["b_used"])

# and so does the product congruence
broken = check_product_congruence(wrong, sequence=s)
print("congruence with negated b: passed =", broken.passed)

reports, summary = run_all(60)
print(f"\nfull harness, p <= 60 defaults: {summary['passed']}/{summary['total']} passed")
