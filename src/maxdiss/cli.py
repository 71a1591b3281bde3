"""Command-line interface.

Subcommands map to pipeline stages over a shared scenario config:

    maxdiss simulate --config cfg.json --out run/
    maxdiss certify  --config cfg.json --out run/
    maxdiss select   --config cfg.json --out run/
    maxdiss mv       --fine <traj dir> --coarse <traj dir> --out <dir>
    maxdiss report   --out run/

Exit codes: 0 success, 2 certificate failure (for select: some member
failed, and the selection mixes the others), 3 solver blow-up,
4 configuration error (including a run tree whose files do not match its
manifest hashes or name a forcing file that cannot be read, a run-tree file
that cannot be read and a certificate verdict other than "pass" or "fail").
--seed overrides the config seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_CERT_FAIL = 2
EXIT_BLOWUP = 3
EXIT_CONFIG = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxdiss",
        description="Dissipative-solution toolkit for 2D incompressible "
                    "flows: simulate, certify, select, defect measures.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="scenario config JSON")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common],
                   help="run the scenario's flow simulations")
    sub.add_parser("certify", parents=[common],
                   help="certify simulated members against the test family")
    sub.add_parser("select", parents=[common],
                   help="select the maximal dissipative mixture")
    mv = sub.add_parser("mv", parents=[common],
                        help="build a defect field from a trajectory pair")
    mv.add_argument("--fine", required=True, help="fine trajectory directory")
    mv.add_argument("--coarse", required=True,
                    help="coarse trajectory directory")
    mv.add_argument("--kmax", type=int, default=None,
                    help="mollifier low-pass scale")
    sub.add_parser("report", parents=[common],
                   help="emit CSV/JSON summaries from a run directory")
    sub.add_parser("run", parents=[common],
                   help="full pipeline: simulate, certify, then select (mv for mv_ladder)")
    return parser


def _load_config(args):
    from .scenarios import ConfigError, ScenarioConfig
    if not args.config:
        raise ConfigError("/: --config is required for this command")
    return ScenarioConfig.from_file(args.config, out_dir=args.out,
                                    seed=args.seed)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .fields import FieldError
    from .scenarios import (ConfigError, _read_json, load_members, report, run_scenario,
                            stage_certify, stage_select, stage_simulate)
    from .solver import BlowUpError, SolverError

    try:
        if args.command == "simulate":
            config = _load_config(args)
            family = stage_simulate(config)
            print(f"simulated {family.size} member(s) -> "
                  f"{Path(config.out_dir) / 'sim'}")
            return EXIT_OK
        if args.command == "certify":
            config = _load_config(args)
            ok = all(stage_certify(config, load_members(config)).values())
            print(f"certificate {'PASS' if ok else 'FAIL'}")
            return EXIT_OK if ok else EXIT_CERT_FAIL
        if args.command == "select":
            config = _load_config(args)
            family, certs = load_members(config), Path(config.out_dir) / "certificates"
            verdicts = {mid: _read_json(certs / f"{mid}.json", "certificate verdict",
                                        lambda d: {"pass": True, "fail": False}[d["verdict"]])
                        for mid in family.member_ids}  # any other stored verdict: exit 4
            summary = stage_select(config, family, verdicts)
            print(json.dumps(summary) if summary else "no member passed: no selection")
            return EXIT_OK if all(verdicts.values()) else EXIT_CERT_FAIL
        if args.command == "run":
            config = _load_config(args)
            code = run_scenario(config)
            print(f"scenario {config.scenario}: "
                  f"{'PASS' if code == 0 else 'certificate FAIL'}")
            return code
        if args.command == "mv":
            from .mv_euler import MVError, defect_from_pair
            from .solver import Trajectory
            if not args.out:
                raise ConfigError("/: --out is required for mv")
            try:
                fine = Trajectory.load(args.fine)
                coarse = Trajectory.load(args.coarse)
                defect = defect_from_pair(fine, coarse,
                                          mollifier_kmax=args.kmax)
            except MVError as exc:
                raise ConfigError(f"/mv: {exc}") from exc
            defect.save(args.out)
            print(f"defect field -> {args.out} "
                  f"(kmax={defect.mollifier_kmax}, "
                  f"clip={defect.clip_magnitude:g})")
            return EXIT_OK
        if args.command == "report":
            if not args.out:
                raise ConfigError("/: --out is required for report")
            summary = report(args.out)
            print(json.dumps(summary))
            return EXIT_OK
    except (ConfigError, FieldError, SolverError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
