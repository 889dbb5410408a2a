"""Command-line front end.

Thin wrapper around the library: every subcommand parses flags, resolves
them against an optional flat KEY=VALUE config file (the ``--config``
flag or else the ``COVERTSENSE_CONFIG`` environment variable; flags win),
calls library functions, and serialises the results.  No numerics live
here.  ``scenario``, ``bounds``, ``sweep``, ``optimize`` and
``reproduce-paper`` run on the math-only closed forms and import no
numpy; ``mse-mc`` loads it in the Monte-Carlo run and ``oracle-check``
imports :mod:`covertsense.fock` when it runs.  What each command loads,
as the ``STARTUP`` table of ``tests/test_cli.py`` checks, one fresh
interpreter per command:

* :mod:`covertsense.link`: only ``sweep``, ``optimize`` and
  ``reproduce-paper``, inside the command, so ``scenario``, ``bounds``
  and ``mse-mc`` start without it.
* :mod:`covertsense.estimation`: ``bounds`` and ``mse-mc`` inside the
  command, and the link commands through :mod:`covertsense.link`;
  ``scenario`` starts without it.
* :mod:`dataclasses` (and the :mod:`inspect` it pulls in): no command.
  ``sweep`` writes the link layer's ``NamedTuple`` points, not the
  ``SweepRow`` dataclass of ``sweep_frequency``.  ``mse-mc`` and
  ``oracle-check`` load ``inspect`` through numpy.

``_COMMANDS`` alone decides what a flag is: its name, converter and
default.  One walk over it reads the command line,
``covertsense [--config FILE] COMMAND [--FLAG VALUE | --FLAG=VALUE]...``.
Flag names match exactly, with no prefixes, and the token after a flag is
always its value, so ``--theta -1e-3`` sets theta; ``--`` is no
separator.  ``-h``/``--help`` where it is not a value prints the commands
or the flags of the command on stdout and exits 0.  Config keys match
flag names case-insensitively (``L = 3000`` and ``l = 3000`` both set
``--L``); a key given twice is a usage error, and so is a flag given
twice on the command line.  A flag with fixed choices (``--format``,
``--area-factor``, ``--eta-policy``) refuses any other value as a usage
error.  Every usage error is one ``covertsense: <message>`` line on
stderr that quotes the tokens as typed.

Output contracts:

* JSON reports are ``sort_keys=True, indent=2`` with Python repr floats,
  so parsed values equal the in-memory doubles bitwise and identical
  config + seed produces byte-identical bytes (no timestamps, no paths).
* Every JSON report embeds the resolved config and a metadata block
  (seed where meaningful, RNG name, constants version).  CSV output is
  bare plot data — header plus rows — and the resolved config goes to
  stderr instead so the stream stays machine-readable.
* Exit codes: 0 success; 1 domain error, or numpy missing for ``mse-mc``
  or ``oracle-check`` (a machine-readable error object is printed), or a
  stdout closed by its reader (quietly, with no error object); 2 usage
  error.

All quantities are SI base units (meters, hertz, seconds, kelvin); no
unit-suffix parsing.
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, NoReturn, Sequence

from ._constants import CONSTANTS_VERSION, RNG_ALGORITHM
from .covertness import covert_budget, willie_error_lower_bound, willie_qre
from .errors import DomainError, EmptySweepError, NumericalInstabilityError
from .scenario import SensingScenario, _willie_layout

if TYPE_CHECKING:
    from .link import LinkGeometry

__all__ = ["main", "emit_csv", "CONFIG_ENV_VAR"]

CONFIG_ENV_VAR = "COVERTSENSE_CONFIG"

CSV_HEADER = "f_hz,lambda_m,eta,nbar_b,c_ase,B"

#: Residual thresholds for the oracle-check subcommand, from the
#: cross-validation contracts of the number-basis oracle.
ORACLE_TOLERANCES = {
    "willie_mean_max": 1e-8,
    "willie_cm_max_err": 1e-6,
    "willie_purity_err": 1e-6,
    "willie_qre_err": 1e-4,
    "alice_mean_max": 1e-8,
    "alice_cm_max_err": 1e-6,
    "alice_fidelity_err": 1e-5,
}


def _one_of(*choices: str) -> Callable[[str], str]:
    """A converter that accepts only ``choices``."""

    def convert(raw: str) -> str:
        if raw not in choices:
            raise ValueError("must be " + " or ".join(choices))
        return raw

    return convert


def _link_choice(name: str, kind: Callable[[str], Any]) -> Callable[[str], Any]:
    """A converter that accepts only the values of ``link.<name>``.

    :mod:`covertsense.link` is read when a value is converted, which only
    the link commands do, so no other command loads it.
    """

    def convert(raw: str) -> Any:
        from . import link

        choices = getattr(link, name)
        value = kind(raw)
        if value not in choices:
            raise ValueError("must be " + " or ".join(map(str, choices)))
        return value

    return convert


class _Flag(NamedTuple):
    name: str  # flag name without dashes, e.g. "eta1"
    kind: Callable[[str], Any]
    default: Any  # ... means required
    help: str


_GEOMETRY_FLAGS = [
    _Flag("rt", float, 0.04, "transceiver pupil radius (m)"),
    _Flag("rtarget", float, 0.10, "target radius (m)"),
    _Flag("t0", float, 300.0, "ambient temperature (K)"),
    _Flag(
        "area-factor",
        _link_choice("_ALLOWED_AREA_FACTORS", float),
        0.25,
        "aperture-area convention: 1, 0.5 or 0.25",
    ),
    _Flag(
        "eta-policy",
        _link_choice("_ALLOWED_POLICIES", str),
        "error",
        "near-field handling: error or clamp",
    ),
    _Flag("eta-max", float, 0.99, "eta under clamp where the far-field eta exceeds 1"),
]

_SCENARIO_FLAGS = [
    _Flag("eta1", float, ..., "forward tap transmissivity"),
    _Flag("eta2", float, ..., "return tap transmissivity"),
    _Flag("nb1", float, ..., "forward bath occupancy"),
    _Flag("nb2", float, ..., "return bath occupancy"),
]

_BOUND_FLAGS = [
    _Flag("epsilon", float, 1e-3, "covertness budget"),
    _Flag("W", float, 3e12, "bandwidth (Hz)"),
    _Flag("T", float, 1.0, "integration time (s)"),
]

_COMMANDS: dict[str, list[_Flag]] = {
    "scenario": _SCENARIO_FLAGS
    + [
        _Flag("epsilon", float, ..., "covertness budget"),
        _Flag("n", float, ..., "number of channel uses (floored)"),
        _Flag("theta", float, 0.0, "target phase (rad)"),
    ],
    "bounds": _SCENARIO_FLAGS
    + [
        _Flag("epsilon", float, ..., "covertness budget"),
        _Flag("n", float, ..., "number of channel uses (floored)"),
        _Flag("nlo", float, 1e6, "reference (local oscillator) occupancy"),
        _Flag("w-ase", float, 3e12, "thermal-source bandwidth (Hz)"),
        _Flag("w-coh", float, 3e9, "coherent-source bandwidth (Hz)"),
        _Flag("t-int", float, 1e-3, "integration time for the comparison (s)"),
    ],
    "mse-mc": _SCENARIO_FLAGS
    + [
        _Flag("epsilon", float, ..., "covertness budget"),
        _Flag("n", float, ..., "number of channel uses (floored)"),
        _Flag("theta", float, 0.3, "true target phase (rad)"),
        _Flag("trials", int, 10000, "Monte Carlo trials (>= 1000)"),
        _Flag("seed", int, 42, "RNG seed"),
        _Flag("workers", int, 1, "worker threads"),
    ],
    "sweep": [
        _Flag("L", float, ..., "range (m)"),
        _Flag("fmin", float, ..., "lowest frequency (Hz)"),
        _Flag("fmax", float, ..., "highest frequency (Hz)"),
        _Flag("points", int, ..., "grid points"),
    ]
    + _GEOMETRY_FLAGS
    + _BOUND_FLAGS
    + [_Flag("format", _one_of("csv", "json"), "csv", "output format: csv or json")],
    "optimize": [
        _Flag("L", float, ..., "range (m)"),
        _Flag("lmin", float, 3e-6, "bracket lower edge (m)"),
        _Flag("lmax", float, 2e-5, "bracket upper edge (m)"),
    ]
    + _GEOMETRY_FLAGS
    + _BOUND_FLAGS,
    "reproduce-paper": _BOUND_FLAGS
    + [
        _Flag(
            "format", _one_of("table", "json"), "table", "output format: table or json"
        )
    ],
    "oracle-check": [
        _Flag("eta1", float, 0.6, "forward tap transmissivity"),
        _Flag("eta2", float, 0.75, "return tap transmissivity"),
        _Flag("nb1", float, 0.2, "forward bath occupancy"),
        _Flag("nb2", float, 0.3, "return bath occupancy"),
        _Flag("ns", float, 0.05, "probe signal occupancy"),
        _Flag("nlo", float, 0.25, "probe reference occupancy"),
        _Flag("theta", float, 0.3, "target phase (rad)"),
        _Flag("cutoff", int, None, "explicit total-photon cutoff"),
    ],
}


def _dest(flag_name: str) -> str:
    return flag_name.replace("-", "_")


#: Every flag's destination, keyed by its lowercased form.  No two flags
#: differ only in case, so a config key names at most one flag.
_CONFIG_KEYS = {
    _dest(flag.name).lower(): _dest(flag.name)
    for flags in _COMMANDS.values()
    for flag in flags
}


def _load_config_file(path: str) -> dict[str, str]:
    """Parse a flat KEY=VALUE config file ('#' starts a comment).

    Keys match flag destinations case-insensitively; an unknown key is
    returned lowercased.  A key set twice is refused with both lines.
    """
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected KEY=VALUE, got {raw!r}")
            key, _, value = line.partition("=")
            lowered = _dest(key.strip().lower())
            dest = _CONFIG_KEYS.get(lowered, lowered)
            if dest in lines:
                raise ValueError(
                    f"{path}: key {key.strip()!r} is set on lines "
                    f"{lines[dest]} and {line_no}"
                )
            lines[dest] = line_no
            values[dest] = value.strip()
    return values


def _refuse(message: str) -> NoReturn:
    """A usage error: one ``covertsense: <message>`` line on stderr, exit 2."""
    sys.stderr.write(f"covertsense: {message}\n")
    raise SystemExit(2)


def _usage(command: str | None) -> str:
    """Help text: the grammar, then ``--config`` and the flags of ``command``."""
    rows = [("--config FILE", f"KEY=VALUE config file (default: ${CONFIG_ENV_VAR})")]
    for flag in _COMMANDS.get(command or "", []):
        note = "required" if flag.default is ... else f"default: {flag.default}"
        rows.append((f"--{flag.name}", f"{flag.help} ({note})"))
    name = command or "{" + ",".join(_COMMANDS) + "}"
    head = f"usage: covertsense [-h] [--config FILE] {name} "
    head += "[--FLAG VALUE | --FLAG=VALUE]...\n\n"
    return head + "".join(f"  {flag:14} {text}\n" for flag, text in rows)


def _parse(argv: Sequence[str]) -> tuple[str, dict[str, str]]:
    """The command, and the raw value of each flag given keyed by its name.

    One walk reads ``[--config FILE] COMMAND [--FLAG VALUE | --FLAG=VALUE]...``.
    Before the command the only flag is ``--config``, after it the flags of
    ``_COMMANDS[command]``.  The token after a flag is always its value,
    ``--`` is no separator, and ``-h``/``--help`` where it is not a value
    prints the help and exits 0.  The walk refuses, in the order met, a flag
    given twice, a flag with no value, any other dash token before the
    command and a name that is no command; then a missing command and,
    quoted as typed, every token after the command that is not a flag or
    its value.
    """
    command: str | None = None
    names = {"config"}
    given: dict[str, str] = {}
    extras: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_usage(command))
            raise SystemExit(0)
        name, joined, value = token.partition("=")
        if name.startswith("--") and name[2:] in names:
            if name[2:] in given:
                _refuse(f"argument {name}: given more than once")
            value = value if joined else next(tokens, None)
            if value is None:
                _refuse(f"argument {name}: expected one argument")
            given[name[2:]] = value
        elif command is not None:
            extras.append(token)
        elif token.startswith("-"):
            _refuse(f"unrecognized arguments: {name}")
        elif token in _COMMANDS:
            command = token
            names = {flag.name for flag in _COMMANDS[command]}
        else:
            choices = ", ".join(map(repr, _COMMANDS))
            _refuse(
                f"argument command: invalid choice: {token!r} (choose from {choices})"
            )
    if command is None:
        _refuse("the following arguments are required: command")
    if extras:
        _refuse("unrecognized arguments: " + " ".join(extras))
    return command, given


def _resolve(command: str, given: dict[str, str]) -> dict[str, Any]:
    """Every flag of ``command``, converted; a usage error exits 2.

    A flag on the command line wins over the config file, which wins over
    the default.  A ``--config`` given, even an empty one, wins over
    ``COVERTSENSE_CONFIG``.
    """
    config_path = given.get("config", os.environ.get(CONFIG_ENV_VAR) or None)
    file_values: dict[str, str] = {}
    if config_path is not None:
        try:
            file_values = _load_config_file(config_path)
        except (OSError, ValueError) as exc:
            _refuse(f"config error: {exc}")
        unknown = set(file_values) - set(_CONFIG_KEYS.values())
        if unknown:
            _refuse("unknown config keys: " + ", ".join(sorted(unknown)))
    resolved: dict[str, Any] = {}
    for flag in _COMMANDS[command]:
        dest = _dest(flag.name)
        raw = given.get(flag.name, file_values.get(dest))
        if raw is None:
            if flag.default is ...:
                _refuse(f"missing required option --{flag.name}")
            resolved[dest] = flag.default
            continue
        try:
            resolved[dest] = flag.kind(raw)
        except (TypeError, ValueError) as exc:
            _refuse(f"bad value for --{flag.name}: {exc}")
    return resolved


def _metadata(seed: int | None) -> dict[str, Any]:
    return {
        "constants_version": CONSTANTS_VERSION,
        "rng": RNG_ALGORITHM,
        "seed": seed,
    }


def _nonfinite(value: Any, path: str) -> tuple[str, float] | None:
    """(path, value) of the first NaN or infinite float in ``value``."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (path, value)
    if isinstance(value, dict):
        items: Any = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        found = _nonfinite(item, f"{path}.{key}" if path else str(key))
        if found is not None:
            return found
    return None


def _refuse_nonfinite(value: Any, path: str = "") -> None:
    """Refuse output holding NaN or infinity, naming the first such value."""
    found = _nonfinite(value, path)
    if found is not None:
        raise ValueError(
            f"{found[0]} evaluates to {found[1]!r}: an input is outside the "
            "range where the model gives a finite answer"
        )


def _emit_json(payload: dict[str, Any]) -> None:
    """Write strict JSON; refuse a report holding NaN or infinity."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        _refuse_nonfinite(payload)
        raise
    sys.stdout.write(text + "\n")


def _report(
    command: str,
    config: dict[str, Any],
    results: dict[str, Any],
    *,
    seed: int | None = None,
) -> None:
    _emit_json(
        {
            "command": command,
            "config": config,
            "metadata": _metadata(seed),
            "results": results,
        }
    )


def _csv_cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def emit_csv(rows: Sequence[Any]) -> None:
    """Write sweep rows as CSV to stdout (header always; one line per row)."""
    stream = sys.stdout
    stream.write(CSV_HEADER + "\n")
    for row in rows:
        cells = (
            _csv_cell(row.f_hz),
            _csv_cell(row.lambda_m),
            _csv_cell(row.eta),
            _csv_cell(row.nbar_b),
            _csv_cell(row.c_ase),
            _csv_cell(row.b),
        )
        stream.write(",".join(cells) + "\n")


def _scenario_from(config: dict[str, Any]) -> SensingScenario:
    return SensingScenario(
        eta_1=config["eta1"],
        eta_2=config["eta2"],
        nbar_b1=config["nb1"],
        nbar_b2=config["nb2"],
    )


def _geometry_from(config: dict[str, Any]) -> LinkGeometry:
    from .link import LinkGeometry

    return LinkGeometry(
        range_m=config["L"],
        r_t=config["rt"],
        r_target=config["rtarget"],
        t0=config["t0"],
        area_factor=config["area_factor"],
        eta_policy=config["eta_policy"],
        eta_max=config["eta_max"],
    )


def _cmd_scenario(config: dict[str, Any]) -> int:
    scenario = _scenario_from(config)
    budget = covert_budget(scenario, config["epsilon"], config["n"])
    layout = _willie_layout(scenario, budget.nbar_s, config["theta"])
    results = {
        "eta_eff": scenario.eta_eff,
        "nb_eff": scenario.nbar_b_eff,
        "c2": budget.c2,
        "c3": budget.c3,
        "ns": budget.nbar_s,
        "in_taylor_regime": budget.in_taylor_regime,
        "qre_per_mode": willie_qre(scenario, budget.nbar_s),
        "willie_error_bound": willie_error_lower_bound(
            budget.c2, config["n"], budget.nbar_s
        ),
        "willie_cm": layout,
    }
    _report("scenario", config, results)
    return 0


def _cmd_bounds(config: dict[str, Any]) -> int:
    from .estimation import estimation_report

    scenario = _scenario_from(config)
    report = estimation_report(
        scenario,
        config["epsilon"],
        config["n"],
        config["nlo"],
        w_ase=config["w_ase"],
        w_coh=config["w_coh"],
        integration_time=config["t_int"],
    )
    results = {
        "eta_eff": scenario.eta_eff,
        "nb_eff": scenario.nbar_b_eff,
        "F_A": report.f_a,
        "F_A_prime": report.f_a_prime,
        "c_ase": report.c_ase,
        "c_het_tilde": report.c_het_tilde,
        "c_coh": report.c_coh,
        "c_het": report.c_het,
        "B": report.qcrb,
        "mse_het": report.mse_het,
        "mu": report.mu,
        "mu_c": report.mu_c,
        "mu_w": report.mu_w,
    }
    _report("bounds", config, results)
    return 0


def _cmd_mse_mc(config: dict[str, Any]) -> int:
    from .estimation import heterodyne_stats, sample_heterodyne_mse

    scenario = _scenario_from(config)
    budget = covert_budget(scenario, config["epsilon"], config["n"])
    stats = heterodyne_stats(scenario, config["theta"], budget.nbar_s, config["n"])
    # An infinite variance is refused as any non-finite result is, by name,
    # before a trial is drawn.
    _refuse_nonfinite({"sigma_het_sq": stats.sigma_het_sq}, "results")
    mse, stderr = sample_heterodyne_mse(
        stats.sigma_het_sq,
        config["theta"],
        config["trials"],
        config["seed"],
        workers=config["workers"],
    )
    results = {
        "mse": mse,
        "stderr": stderr,
        "sigma_het_sq": stats.sigma_het_sq,
        "ns": budget.nbar_s,
    }
    # The worker count routes identical per-trial substreams to threads and
    # cannot change any result, so it is an execution detail rather than
    # config: echoing it would break byte-identical output across
    # parallelism settings.
    config_echo = {key: value for key, value in config.items() if key != "workers"}
    _report("mse-mc", config_echo, results, seed=config["seed"])
    return 0


def _cmd_sweep(config: dict[str, Any]) -> int:
    # The points sweep_frequency's rows are built from, as NamedTuples: the
    # command needs no SweepRow and so no dataclasses.
    from .link import _sweep_points

    geometry = _geometry_from(config)
    try:
        rows = list(
            _sweep_points(
                config["fmin"],
                config["fmax"],
                config["points"],
                geometry,
                config["epsilon"],
                config["W"],
                config["T"],
            )
        )
    except EmptySweepError as exc:
        if config["format"] == "csv":
            emit_csv([])
        _emit_error(exc, stream=sys.stderr)
        return 1
    if config["format"] == "csv":
        # Every row is checked before the first is written, each in place.
        for i, row in enumerate(rows):
            _refuse_nonfinite({"c_ase": row.c_ase, "b": row.b}, f"rows.{i}")
        emit_csv(rows)
        sys.stderr.write(
            json.dumps({"config": config, "metadata": _metadata(None)}, sort_keys=True)
            + "\n"
        )
    else:
        _report(
            "sweep",
            config,
            {"rows": [row._asdict() for row in rows]},
        )
    return 0


def _cmd_optimize(config: dict[str, Any]) -> int:
    from .link import optimize_wavelength

    geometry = _geometry_from(config)
    lambda_star, c_ase, bound = optimize_wavelength(
        geometry,
        (config["lmin"], config["lmax"]),
        epsilon=config["epsilon"],
        bandwidth=config["W"],
        integration_time=config["T"],
    )
    _report(
        "optimize",
        config,
        {"lambda_star": lambda_star, "c_ase": c_ase, "B": bound},
    )
    return 0


def _format_reproduce_table(report: Any) -> str:
    lines = []
    lines.append(
        f"reference check at epsilon={report.epsilon:g}, W={report.bandwidth_hz:g} Hz, "
        f"T={report.integration_time_s:g} s "
        f"(tolerances: |dlambda| <= {report.lambda_tolerance_m * 1e6:g} um, "
        f"|dB|/B <= {report.b_rel_tolerance:.0%})"
    )
    header = (
        f"{'convention':22s} {'target':34s} {'lambda* (um)':>12s} "
        f"{'B':>13s} {'B target':>10s} {'dlam (um)':>10s} {'B rel err':>10s} {'ok':>3s}"
    )
    for convention in report.conventions:
        lines.append("")
        lines.append(header)
        label = f"af={convention.area_factor:g} policy={convention.eta_policy}"
        for result in convention.results:
            lam = f"{result.lambda_m * 1e6:.4f}" if result.lambda_m is not None else "-"
            b_val = f"{result.b_value:.6g}" if result.b_value is not None else "-"
            d_lam = (
                f"{result.d_lambda_m * 1e6:+.3f}"
                if result.d_lambda_m is not None
                else "-"
            )
            rel = f"{result.b_rel_err:+.3%}" if result.b_rel_err is not None else "-"
            flag = f" [{result.flag}]" if result.flag else ""
            lines.append(
                f"{label:22s} {result.label:34s} {lam:>12s} {b_val:>13s} "
                f"{result.b_target:>10g} {d_lam:>10s} {rel:>10s} "
                f"{'yes' if result.matches else 'no':>3s}{flag}"
            )
    lines.append("")
    matched = report.matched
    if matched is None:
        lines.append(
            "no convention reproduces all five reference values within tolerance; "
            "the residuals above are the result"
        )
    else:
        lines.append(
            f"matched convention: area_factor={matched.area_factor:g}, "
            f"eta_policy={matched.eta_policy}"
        )
    return "\n".join(lines) + "\n"


def _plain(value: Any) -> Any:
    """A record as nested dicts, its tuples as lists, for JSON."""
    if hasattr(value, "_asdict"):
        return {key: _plain(item) for key, item in value._asdict().items()}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def _cmd_reproduce_paper(config: dict[str, Any]) -> int:
    from .link import reproduce_paper_report

    report = reproduce_paper_report(
        epsilon=config["epsilon"],
        bandwidth=config["W"],
        integration_time=config["T"],
    )
    results = _plain(report)
    if config["format"] == "json":
        _report("reproduce-paper", config, results)
    else:
        _refuse_nonfinite(results, "results")
        sys.stdout.write(_format_reproduce_table(report))
    return 0


def _cmd_oracle_check(config: dict[str, Any]) -> int:
    from .fock import oracle_cross_check

    scenario = _scenario_from(config)
    residuals = oracle_cross_check(
        scenario, config["ns"], config["nlo"], config["theta"], config["cutoff"]
    )
    passed = all(
        residuals[name] <= bound for name, bound in ORACLE_TOLERANCES.items()
    )
    _report(
        "oracle-check",
        config,
        {
            "residuals": residuals,
            "tolerances": ORACLE_TOLERANCES,
            "passed": passed,
        },
    )
    return 0 if passed else 1


_HANDLERS: dict[str, Callable[[dict[str, Any]], int]] = {
    "scenario": _cmd_scenario,
    "bounds": _cmd_bounds,
    "mse-mc": _cmd_mse_mc,
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
    "reproduce-paper": _cmd_reproduce_paper,
    "oracle-check": _cmd_oracle_check,
}


def _emit_error(exc: Exception, stream: Any = None) -> None:
    stream = stream or sys.stdout
    stream.write(
        json.dumps(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            sort_keys=True,
        )
        + "\n"
    )


def main(argv: Sequence[str] | None = None) -> int:
    command, given = _parse(sys.argv[1:] if argv is None else argv)
    config = _resolve(command, given)
    try:
        try:
            code = _HANDLERS[command](config)
        except (
            DomainError,
            NumericalInstabilityError,
            ValueError,
            OverflowError,
            # numpy is imported only by the commands that compute with it.
            ModuleNotFoundError,
        ) as exc:
            _emit_error(exc)
            code = 1
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  Point stdout at devnull so
        # the flush at interpreter exit cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
