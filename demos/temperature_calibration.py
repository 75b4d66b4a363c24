"""Locate the environment temperature behind a set of extra-work values.

The normalized extra work of a reset run scales like the thermal ratio
of the restoring frequency, so a handful of measured (or published)
W_ex/(k_B T ln 2) values pins the temperature tightly.  The default
targets here are the four reference values shipped with the package;
the single-spectrum fits agree with the joint fit to well under a
percent, which is the internal-consistency check.
"""

import qreset as q

print("targets:", q.PAPER_W_EX_NORM_TARGETS)
result = q.calibrate_temperature(q.PAPER_W_EX_NORM_TARGETS)
print(f"joint best-fit temperature: {result.best_temperature_K * 1e3:.4f} mK")
for key, value in result.computed.items():
    print(f"  {key}: computed {value:.4f} vs target {result.targets[key]}"
          f" ({result.residuals[key] * 100:+.3f}%)")

print()
for key in ("lz", "prot"):
    single = q.calibrate_temperature({key: q.PAPER_W_EX_NORM_TARGETS[key]})
    print(f"{key}-only fit: {single.best_temperature_K * 1e3:.4f} mK")

# The quick analytic check: under constant control the extra work is
# 0.5 * x_st - ln 2 in kT units, so each target inverts to a temperature
# by hand as well.
env = q.Environment(result.best_temperature_K)
approx = q.constant_control_work_approx(5.4, env) / q.LN2
print()
print(f"constant-control approximation at the fitted T for the 5.4 GHz peak:"
      f" {approx:.3f} (target {q.PAPER_W_EX_NORM_TARGETS['lz']})")

bound = q.thermodynamic_length_bound(0.1314) / q.LN2
print(f"constant-rate lower bound at T_reset/T1 = 0.1314: {bound:.2f} kT ln2")
