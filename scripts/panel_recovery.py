#!/usr/bin/env python3
"""Coefficient and variance-component recovery on planted balanced panels.

Builds country-day panels from a known data-generating process and fits
the random-effects EGLS estimator against the truth.  With the default
geometry (11 countries, 2435 days) the idiosyncratic noise dominates the
country effect, mirroring the regime the estimator is tuned for; the
variance-share column shows how well the between moment recovers it.
"""

import argparse

from dwe import panel, synth


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=4,
                    help="number of independent replications")
    ap.add_argument("--countries", type=int, default=11)
    ap.add_argument("--days", type=int, default=2435)
    ap.add_argument("--sigma-country", type=float, default=0.05)
    ap.add_argument("--weighting", choices=panel.WEIGHTINGS,
                    default="none", help="cell-size weighting")
    args = ap.parse_args(argv)

    header = f"{'seed':>4} {'term':<16} {'planted':>10} {'fitted':>10} " \
             f"{'se':>8} {'stars':<4}"
    truth_rho = None
    for seed in range(args.seeds):
        plant = synth.PanelPlant(seed=seed, n_countries=args.countries,
                                 T=args.days,
                                 sigma_country=args.sigma_country)
        data, truth = synth.make_synthetic_panel(plant)
        fit = panel.re_egls_fit(data, weighting=args.weighting)
        truth_rho = truth["rho_share"]
        print(header if seed == 0 else "")
        for term, planted in plant.betas:
            if term not in fit.columns:
                continue
            j = fit.columns.index(term)
            print(f"{seed:>4} {term:<16} {planted:>10.4f} "
                  f"{fit.coefficients[j]:>10.4f} "
                  f"{fit.standard_errors[j]:>8.4f} {fit.stars[j]:<4}")
        note = "  (clamped)" if fit.clamped else ""
        print(f"     variance share: fitted {fit.rho_share:.6f} "
              f"vs planted {truth_rho:.6f}{note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
