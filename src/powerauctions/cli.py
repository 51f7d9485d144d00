"""Command-line entry point wiring ingestion, simulation and analytics.

Exit codes: 0 success, and otherwise the class of the exception decides:

- 1, a ``UsageError``: argparse, or a flag check in this module;
- 2, a ``MarketDataError`` or ``OSError``: a file that cannot be read or
  parsed, or content that a domain object or the scenario schema rejects;
- 3, any other ``ValueError`` (``RegressionError`` included) or an
  ``AuctionError``: a parsed value that a model or statistic rejects.

Every output artifact carries a metadata header (tool version and
a config echo, seed included), JSON reports use stable key ordering, and
re-running with identical inputs and seed reproduces outputs byte for byte.
A plain-text config file of ``key=value`` lines can replace flags; flags
win on conflict. A subcommand returns its outputs, as (path, write) pairs,
and ``main`` writes them, so a run that fails writes no file.

Each subcommand imports the modules it runs when it runs, so a process pays
only for its own: ``ingest`` needs nothing beyond ``market_data``. The
scenario schema (``build_scenario``, ``outcome_to_dict``) lives in
``auction_engine``; those names resolve here too, loading it on first use.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

from . import __version__
from .market_data import (_ACTIVITY, _AVERAGES, _EVENT_STUDY, _EVENTS, _FMPI, _PANEL,
                          _PREMIUMS, _STRIP_PRICES, AuctionError, MarketDataError, MarketZone,
                          _read_table, _read_text, _repeated, _write_table, average_price,
                          load_auctions_csv, load_costs_csv, load_futures_csv,
                          load_spot_csv_multi, write_auctions_csv, write_costs_csv,
                          write_futures_csv, write_spot_csv)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class UsageError(Exception):
    pass


def _metadata(args) -> dict:
    # the output location is not a semantic input: identical runs into
    # different directories must still produce byte-identical artifacts
    echo = {k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "out") and v is not None}
    return {"tool": f"powerauctions {__version__}", "config": echo}


def _json_output(path, payload: dict):
    """``path`` and a function that writes ``payload`` there as strict JSON.

    The text is made here: a NaN or infinity fails the run before any file
    is written.
    """
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise ValueError(f"{path}: non-finite number in JSON output") from None
    return Path(path), lambda path: path.write_text(text + "\n", encoding="utf-8")


def _csv_output(path, args, table, *columns):
    """``path`` and a function that writes a CSV artifact there: the metadata
    lines, then ``table`` with ``columns``."""
    meta = _metadata(args)
    preamble = f"# {meta['tool']}\n# config={json.dumps(meta['config'], sort_keys=True)}\n"
    return Path(path), lambda path: _write_table(path, table, columns, preamble=preamble)


# --- subcommands -------------------------------------------------------------


def _cmd_ingest(args):
    out = Path(args.out)
    if args.kind == "spot":
        series_by_zone = load_spot_csv_multi(args.input)
        count = sum(len(s) for s in series_by_zone.values())
        outputs = [(out / f"spot_{zone.market}_{zone.zone}.csv",
                    lambda path, series=series: write_spot_csv(path, series))
                   for zone, series in series_by_zone.items()]
    else:
        load, write = {"futures": (load_futures_csv, write_futures_csv),
                       "auctions": (load_auctions_csv, write_auctions_csv),
                       "costs": (load_costs_csv, write_costs_csv)}[args.kind]
        data = load(args.input)
        count = sum(map(len, data)) if args.kind == "futures" else len(data)
        outputs = [(out / f"{args.kind}.csv", lambda path: write(path, data))]
    outputs.append(_json_output(out / "ingest_summary.json", {
        "metadata": _metadata(args), "kind": args.kind, "rows_accepted": count}))
    return outputs, f"ingest ok kind={args.kind} rows={count}"


def _premium_rows(args) -> list:
    from .premiums import PremiumRow, cesur_premium, fmpi_premium, pjm_premium

    records = load_auctions_csv(args.auctions)
    fmpi_map = ({(m, k): v for _, (m, k, v) in _read_table(args.fmpi, _FMPI)}
                if args.fmpi else {})
    costs_map = ({(c.zone.market, c.zone.zone, c.year): c.unit_cost
                  for c in load_costs_csv(args.costs)} if args.costs else {})
    averages_map = ({(m, z, year): price for _, (m, z, year, price)
                     in _read_table(args.averages, _AVERAGES)} if args.averages else {})
    spot_by_zone = load_spot_csv_multi(args.spot)

    def spot_avg_for(zone, rec):
        if zone not in spot_by_zone:
            raise MarketDataError(f"{args.spot}: no spot prices for zone {zone.market}/{zone.zone}")
        return average_price(spot_by_zone[zone], rec.delivery, mode=args.spot_mode)

    rows = []
    for rec in records:
        year = rec.auction_date.year
        if rec.market == "OMEL":
            costs, group, label = 0.0, str(year), rec.product_id
            spot_avg = spot_avg_for(MarketZone("OMEL", "ES"), rec)
            prem, pct = cesur_premium(rec.clearing_price, spot_avg)
        else:
            group = rec.product_id.split("-")[0]  # the zone
            costs, label = costs_map.get(("PJM", group, year), 0.0), f"{year}-{group}"
            avg_price = averages_map.get(("PJM", group, year), rec.clearing_price)
            spot_avg = spot_avg_for(MarketZone("PJM", group), rec)
            prem, pct = pjm_premium(avg_price, costs, spot_avg)
        fmpi_val = fmpi_map.get((rec.market, rec.product_id))
        f_prem = f_pct = None
        if fmpi_val is not None:
            f_prem, f_pct = fmpi_premium(rec.clearing_price, costs, fmpi_val)
        rows.append(PremiumRow(auction_ref=label, group=group, auction_price=rec.clearing_price,
                               spot_avg=spot_avg, costs=costs, premium=prem, premium_pct=pct,
                               fmpi=fmpi_val, fmpi_premium=f_prem, fmpi_premium_pct=f_pct))
    return rows


def _cmd_report(args):
    """``report``, and ``premium``: the same premiums.csv, with the aggregates alone."""
    from .premiums import distribution_stats, equality_of_means, yearly_aggregate

    rows = _premium_rows(args)
    report = {"metadata": _metadata(args),
              "aggregates": dataclasses.asdict(yearly_aggregate(rows))}
    json_name = "premium_summary.json"
    if args.command == "report":
        json_name = "report.json"
        premiums = [r.premium for r in rows]
        if len(premiums) >= 4:
            report["premium_distribution"] = dataclasses.asdict(distribution_stats(premiums))
        by_group: dict[str, list[float]] = {}
        for r in rows:
            by_group.setdefault(r.group, []).append(r.premium)
        if len(by_group) >= 2 and all(len(v) >= 2 for v in by_group.values()):
            report["equality_of_means"] = [
                {"a": c.label_a, "b": c.label_b, "t": c.t_stat, "dof": c.dof, "p": c.p_value}
                for c in equality_of_means(by_group)
            ]
    # the table's columns are named after PremiumRow's fields
    return ([_csv_output(Path(args.out) / "premiums.csv", args, _PREMIUMS,
                         *([getattr(r, name) for r in rows] for name in _PREMIUMS.columns)),
             _json_output(Path(args.out) / json_name, report)],
            f"{args.command} ok rows={len(rows)}")


def _cmd_fmpi(args):
    from .premiums import FmpiSpec, fmpi_strip

    prices = [price for _, (_, price) in _read_table(args.prices, _STRIP_PRICES)]
    value = fmpi_strip(FmpiSpec(monthly_prices=tuple(prices), annual_rate=args.rate))
    payload = {"metadata": _metadata(args), "strip_value": value,
               "annual_rate": args.rate, "n_prices": len(prices)}
    outputs = [_json_output(args.out, payload)] if args.out else []
    return outputs, json.dumps({"strip_value": value}, sort_keys=True, allow_nan=False)


_MEASURES = ("open_interest", "r1", "r2", "volume")  # activity.<measure>_series


def _measure(args):
    from . import activity

    contract = _select_contract(args.futures, args.contract)
    return getattr(activity, f"{args.measure}_series")(contract)


def _select_contract(path, contract):
    series = load_futures_csv(path)
    if not series:
        raise MarketDataError(f"{path}: no contracts")
    if contract:
        matches = [s for s in series if s.contract_id == contract]
        if not matches:
            raise MarketDataError(f"contract {contract!r} not found in {path}")
        return matches[0]
    if len(series) != 1:
        raise UsageError("--contract required when the futures file holds several contracts")
    return series[0]


def _cmd_activity(args):
    measure = _measure(args)
    n, mask = len(measure.dates), measure.defined_mask().tolist()
    return ([_csv_output(Path(args.out) / f"activity_{args.measure}.csv", args, _ACTIVITY,
                         _repeated(measure.contract_id, n), _repeated(measure.measure_kind, n),
                         measure.dates,
                         [v if d else None for v, d in zip(measure.values.tolist(), mask)],
                         mask)],
            f"activity ok measure={args.measure} n={n} undefined={len(measure.undefined_dates)}")


def _cmd_event_study(args):
    from .activity import event_study, significance_tally

    if args.window[0] > args.window[1]:
        raise UsageError(f"argument --window: lower bound {args.window[0]} exceeds "
                         f"upper bound {args.window[1]}")
    measure = _measure(args)
    events = [day for _, (day,) in _read_table(args.events, _EVENTS)]
    if not events:
        raise MarketDataError(f"{args.events}: no event dates")
    results = event_study(measure, events, window=(args.window[0], args.window[1]),
                          variance=args.variance)
    tally = significance_tally(results, alpha=args.alpha)
    out = Path(args.out)
    return ([_csv_output(out / "event_study.csv", args, _EVENT_STUDY,
                         *([getattr(r, name) for r in results] for name in _EVENT_STUDY.columns)),
             _json_output(out / "event_study_summary.json",
                          {"metadata": _metadata(args), "tally": dataclasses.asdict(tally)})],
            f"event-study ok offsets={len(results)} verdict={tally.verdict}")


def _cmd_regress(args):
    from .panel import PanelObservation, fit_pooled_ols

    covariates = [c.strip() for c in args.covariates.split(",") if c.strip()]
    if not covariates:
        raise UsageError("argument --covariates: names no covariate")
    table = _read_table(args.panel, _PANEL)
    # the columns the file's header names: it may lack the optional pls
    covariate_names = list(_PANEL.columns)[3:len(table.columns)]
    for name in covariates:
        if name not in covariate_names:
            raise MarketDataError(f"{args.panel}: {name!r} is not a covariate column")
    panel = [PanelObservation(unit=row[0], period=row[1], y=row[2],
                              covariates=dict(zip(covariate_names, row[3:])))
             for _, row in table]
    result = fit_pooled_ols(panel, covariates,
                            period_fixed_effects=not args.no_period_effects,
                            unit_fixed_effects=args.unit_effects)
    # the fit's mark of no standard error: all of them for an exact fit
    undefined = [repr(c.name) for c in result.coefficients if c.std_error == 0]
    if len(undefined) == len(result.coefficients):
        ys = {obs.y for obs in panel}
        cause = (f"y is {ys.pop()} in every observation" if len(ys) == 1
                 else "y is a linear combination of the design's columns")
        raise ValueError(f"exact fit: {cause}, so no standard error or t statistic is defined")
    if undefined:
        g = result.n_clusters
        raise ValueError(f"{', '.join(undefined)}: cluster-robust variance 0 up to round-off "
                         f"({g} clusters leave the score covariance rank at most {g - 1}), "
                         "so no standard error or t statistic is defined")
    payload = dataclasses.asdict(result)
    payload["coefficients"] = {c.pop("name"): c for c in payload["coefficients"]}
    payload["metadata"] = _metadata(args)
    return ([_json_output(args.out, payload)],
            f"regress ok n={result.n} k={result.k} r2={result.r_squared:.4f}")


def __getattr__(name: str):
    """``build_scenario`` and ``outcome_to_dict``, which live next to the clock
    engine: the first use loads it, so a run that does not simulate never does."""
    if name not in ("build_scenario", "outcome_to_dict"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import auction_engine

    value = globals()[name] = getattr(auction_engine, name)
    return value


def _cmd_simulate(args):
    from .auction_engine import build_scenario, outcome_to_dict, run_descending_clock

    if args.seed < 0:
        raise UsageError(f"argument --seed: expected a non-negative integer, got {args.seed}")
    text = _read_text(args.scenario)
    try:
        scenario = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise MarketDataError(f"{args.scenario}: invalid JSON ({exc})") from None
    except RecursionError:
        raise MarketDataError(f"{args.scenario}: JSON nested too deeply") from None
    config, strategies, bidder_ids = build_scenario(scenario, args.seed)
    outcome = run_descending_clock(config, strategies, bidder_ids)
    payload = {"metadata": {**_metadata(args), "seed": args.seed},
               "outcome": outcome_to_dict(outcome)}
    return ([_json_output(args.out, payload)],
            f"simulate ok price={outcome.clearing_price} rounds={outcome.rounds_used}")


# --- argument wiring ---------------------------------------------------------


def _add_premium_inputs(p):
    p.add_argument("--auctions", required=True)
    p.add_argument("--spot", required=True)
    p.add_argument("--costs")
    p.add_argument("--fmpi")
    p.add_argument("--averages")
    p.add_argument("--spot-mode", default="strict", choices=["strict", "available"])
    p.add_argument("--out", required=True)


def _build_parser() -> _CliParser:
    # no --conf for --config: the config reader takes the full name only
    parser = _CliParser(prog="powerauctions", allow_abbrev=False)
    parser.add_argument("--config", help="key=value defaults file; flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> its parser

    p = sub.add_parser("ingest")
    p.add_argument("--kind", required=True, choices=["spot", "futures", "auctions", "costs"])
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("premium")
    _add_premium_inputs(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("fmpi")
    p.add_argument("--prices", required=True)
    p.add_argument("--rate", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fmpi)

    p = sub.add_parser("activity")
    p.add_argument("--futures", required=True)
    p.add_argument("--measure", required=True, choices=_MEASURES)
    p.add_argument("--contract")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_activity)

    p = sub.add_parser("event-study")
    p.add_argument("--futures", required=True)
    p.add_argument("--measure", required=True, choices=_MEASURES)
    p.add_argument("--contract")
    p.add_argument("--events", required=True)
    p.add_argument("--window", nargs=2, type=int, default=[-5, 5])
    p.add_argument("--variance", default="welch", choices=["welch", "pooled"])
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_event_study)

    p = sub.add_parser("regress")
    p.add_argument("--panel", required=True)
    p.add_argument("--covariates", default="vol3y,startbidders,wbidders")
    p.add_argument("--no-period-effects", action="store_true")
    p.add_argument("--unit-effects", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_regress)

    p = sub.add_parser("simulate")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report")
    _add_premium_inputs(p)
    p.set_defaults(func=_cmd_report)

    return parser


def _apply_config_file(argv: list[str], commands: dict) -> list[str]:
    """Put each ``key=value`` of the --config file as a flag right after the subcommand.

    argparse keeps an option's last value, so a flag on the command line, in
    any form argparse accepts, wins over its key. ``commands`` maps each
    subcommand to its parser: the value of an on/off flag is true or false
    (false adds nothing), that of a two-value option two whitespace-separated
    values.
    """
    reader = _CliParser(add_help=False, allow_abbrev=False)  # --co stays --costs
    reader.add_argument("--config")
    known, rest = reader.parse_known_args(argv)
    if known.config is None:
        return argv
    command = next((a for a in rest if a in commands), None)
    options = commands[command]._option_string_actions if command else {}
    extra = []
    for line in _read_text(known.config).split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        flag = f"--{key.replace('_', '-')}"
        action = options.get(flag)
        if action and action.nargs == 0:
            if value not in ("true", "false"):
                raise UsageError(f"config key {key}: expected true or false, got {value!r}")
            if value == "true":
                extra.append(flag)
        elif action and action.nargs == 2:
            if len(value.split()) != 2:
                raise UsageError(f"config key {key}: expected 2 values, got {value!r}")
            extra += [flag, *value.split()]
        else:
            extra += [flag, value]
    at = rest.index(command) + 1 if command else len(rest)
    return rest[:at] + extra + rest[at:]


# the characters at which str.splitlines breaks a line: a reason or a warning
# that quotes its input writes them as escapes, so that it stays one line
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _fail(code: int, exc: Exception) -> int:
    print(f"error code={code} reason={str(exc).translate(_LINE_BREAKS)}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    # a fresh once-per-location registry, so each call shows its own warnings,
    # each as one line, without the source line that raised it
    with warnings.catch_warnings():
        format_warning = warnings.formatwarning
        warnings.formatwarning = lambda message, *_, **__: (
            f"warning: {str(message).translate(_LINE_BREAKS)}\n")
        try:
            argv = _apply_config_file(argv, parser.commands)
            args = parser.parse_args(argv)
            outputs, message = args.func(args)
            for path, write in outputs:
                path.parent.mkdir(parents=True, exist_ok=True)
                write(path)
            print(message)
            return EXIT_OK
        except UsageError as exc:
            return _fail(EXIT_USAGE, exc)
        except (MarketDataError, OSError) as exc:
            return _fail(EXIT_DATA, exc)
        except (ValueError, AuctionError) as exc:
            return _fail(EXIT_NUMERIC, exc)
        finally:
            warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())
