"""Command-line surface: every subcommand prints one JSON report to stdout.

Reports are deterministic (sorted keys, no timestamps) and always carry the
fields ``command``, ``inputs``, ``result``, and ``paper_ref`` (a stable
identifier of the mathematical claim the command decides).  Exit codes:
0 for success/true/found, 1 for refuted/false/none-within-bound/undecided
(a search that spent its node budget) and for a mirror recovery that failed
(``mirror`` and ``fm``), 2 for input errors (among them malformed JSON,
``mirror`` given one path for both output files, and every usage error).
Diagnostics go to stderr.

The command line is parsed from one table, :data:`COMMANDS`, by
:func:`parse_args`, which builds nothing for the commands it does not run.
A usage error (an unknown command or option, an abbreviated option, a
missing value, path or required option, a non-integer where an integer
belongs) raises ``SchemaError`` like any other input error: one
``input error:`` line, an empty stdout, exit 2.  ``-h`` or ``--help`` prints
one usage line per command and exits 0.

A command compiles the start-up core plus its own layer.  The core is this
module, ``jsonio``, ``torus``, ``exactlinear``, ``errors`` and ``_record``,
and it holds the handlers of ``validate`` and ``doubled``.  The core reads,
checks and writes a torus on int rows over one denominator and builds no
Fraction, so it does not import ``fractions`` (which would also load
``decimal`` and ``numbers``).  The layers that compute with single
rationals import it: ``exterior``, ``cohomology``, ``abranes`` and the
B-field report of ``hodge`` through ``_rational``, and ``fock``, whose
levels and modes are Fractions, directly.  The search, ``spectrum``,
``mirror``, ``hodge`` and ``lefschetz`` work on int rows alone and do not.
Every other handler lives in the layer it drives (``isometry``,
``equivalence``, ``tduality``, ``hodge``, ``cohomology``, ``abranes`` or
``fock``), and :data:`COMMANDS` names it by module and function, so
:func:`main` imports that one module and what it imports.  Only the class
commands of ``cohomology`` and an accepted brane compile ``exterior``.
Each search command compiles its own relation's search and no other:
``check-iso`` and ``check-mirror`` are handled by ``isometry`` (the Narain
isometry search, with ``_lll`` and ``relations``), which compiles none of
the derived_eq path, and ``check-derived-eq`` by ``equivalence``, which reads the integer
kernels (``_intlat``, ``_intkernel``) and compiles LLL and the box scan
(``_lll``, ``kernels``, ``kernels_py``) only when it scans.  The parts of
the search that other layers read live in two small modules: ``relations``
(lattice maps, certificates and ``verify_map``) and ``_intkernel`` (integer
kernels and primitivity).  ``tduality`` reads those two, so ``mirror`` and
``fm`` compile no search, and ``abrane-check`` compiles ``_intkernel``
alone.  A handler takes the parsed arguments, with the config's ``bound``
and ``budget`` already folded in, and returns
``(inputs, result, exit code)``; :func:`main` prints the report.  No layer imports this module:
under ``python -m flattori.cli`` it runs as ``__main__``, and an import
would compile it a second time.  Where ``PYTHONDONTWRITEBYTECODE`` is set
every imported line is compiled again on every start, and start-up is most
of a typical command's time.

The exit is the other end of a command's fixed cost.  Run as the program
(``python -m flattori.cli`` or the ``flattori`` console script, both
``main()`` with no argv), :func:`main` calls ``gc.freeze()`` once the
report is written, so the interpreter's shutdown collections skip the
import graph and the command's objects, whose memory the operating system
reclaims with the process.  atexit handlers still run, stdout and stderr
are still flushed (a failed flush still exits 120), and the exit code and
every byte of output stay the same.
"""

from __future__ import annotations

import gc
import json
import sys
from types import SimpleNamespace

from . import jsonio
from ._record import failures
from .errors import FlatToriError, SchemaError, ValidationError
from .torus import BLOCK_CONVENTION, doubled, narain_form, omega, validate

# budget is equivalence.DEFAULT_NODE_BUDGET, written out so that loading the
# defaults does not import the search layer.
DEFAULTS = {"bound": 2, "budget": 10 ** 7}


def _emit(args, inputs, result, code):
    report = {
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "paper_ref": args.claim,
    }
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return code


def _load_config(path):
    cfg = dict(DEFAULTS)
    if path:
        data = jsonio.load_json(path)
        if not isinstance(data, dict):
            raise SchemaError("config must be an object", path)
        for key, value in data.items():
            if key not in DEFAULTS:
                raise SchemaError(f"unknown config key {key!r}", key)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise SchemaError(f"config {key} must be a nonnegative integer", key)
            cfg[key] = value
    return cfg


# ---------------------------------------------------------------------------
# the handlers of the start-up core; the others live in their layers
# ---------------------------------------------------------------------------


def cmd_validate(args):
    t = jsonio.load_torus(args.torus)
    checks = validate(t)
    ok = not failures(checks)
    result = {"ok": ok, "checks": jsonio.checks_to_json(checks)}
    return {"torus": jsonio.torus_to_json(t)}, result, 0 if ok else 1


def cmd_doubled(args):
    t = jsonio.load_torus(args.torus)
    ds = doubled(t)
    result = {
        "q": jsonio.matrix_to_json(ds.q),
        "calI": jsonio.matrix_to_json(ds.calI),
        "calJ": jsonio.matrix_to_json(ds.calJ),
        "calItilde": jsonio.matrix_to_json(ds.calItilde),
        "block_convention": BLOCK_CONVENTION,
        "omega": jsonio.matrix_to_json(omega(t)),
        "narain_form": jsonio.matrix_to_json(narain_form(t)),
    }
    return {"torus": jsonio.torus_to_json(t)}, result, 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

SEARCH_OPTIONS = {"--bound": ("bound", int, None, False),
                  "--budget": ("budget", int, None, False)}

# command -> (claim, handler module, handler function, path arguments,
# options); each option maps its flag to (dest, type, default, required)
COMMANDS = {
    "validate": ("flat-torus-data-invariants", "cli", "cmd_validate", ("torus",), {}),
    "doubled": ("doubled-lattice-structures", "cli", "cmd_doubled", ("torus",), {}),
    "spectrum": ("zero-mode-spectrum-invariants", "equivalence", "cmd_spectrum", ("torus",),
                 {"--norm": ("norm", int, 2, False)}),
    "verify-map": ("lattice-map-verification", "equivalence", "cmd_verify_map", ("map",), {}),
    "mirror": ("tduality-mirror-construction", "tduality", "cmd_mirror", (),
               {"--torus": ("torus", str, None, True),
                "--split": ("split", str, None, False),
                "--out-torus": ("out_torus", str, None, False),
                "--out-cert": ("out_cert", str, None, False)}),
    "hodge": ("hodge-diamond-ranks", "hodge", "cmd_hodge", ("torus",), {}),
    "pp-classes": ("rational-pp-classes", "cohomology", "cmd_pp_classes", ("torus",),
                   {"--p": ("p", int, None, True)}),
    "lefschetz": ("middle-degree-lefschetz-kernel", "hodge", "cmd_lefschetz",
                  ("torus",), {}),
    "fm": ("duality-cohomology-transport", "cohomology", "cmd_fm", (),
           {"--torus": ("torus", str, None, True),
            "--split": ("split", str, None, True),
            "--class": ("cls", str, None, True)}),
    "check-mirror-class": ("mirror-class-condition", "cohomology", "cmd_check_mirror_class", (),
                           {"--torus": ("torus", str, None, True),
                            "--class": ("cls", str, None, True)}),
    "beta": ("bfield-brauer-torsion", "hodge", "cmd_beta", ("torus",), {}),
    "abrane-check": ("coisotropic-brane-conditions", "abranes", "cmd_abrane_check", (),
                     {"--brane": ("brane", str, None, True)}),
    "fock-verify": ("oscillator-algebra-relations", "fock", "cmd_fock_verify", (),
                    {"--d": ("d", int, None, False),
                     "--cap": ("cap", str, "2", False),
                     "--torus": ("torus", str, None, False)}),
    "check-iso": ("scft-isomorphism-lattice-criterion", "isometry", "cmd_search",
                  ("source", "target"), SEARCH_OPTIONS),
    "check-mirror": ("mirror-symmetry-lattice-criterion", "isometry", "cmd_search",
                     ("source", "target"), SEARCH_OPTIONS),
    "check-derived-eq": ("derived-equivalence-lattice-criterion", "equivalence", "cmd_search",
                         ("source", "target"), SEARCH_OPTIONS),
}

HELP = ("-h", "--help")


def _print_usage():
    lines = ["usage: flattori [--config FILE] COMMAND, where COMMAND is one of:"]
    for name, (_, _, _, paths, options) in COMMANDS.items():
        words = [name, *(p.upper() for p in paths)]
        for flag, (_, _, _, required) in options.items():
            word = f"{flag} {flag[2:].upper()}"
            words.append(word if required else f"[{word}]")
        lines.append("  " + " ".join(words))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _option(word, words, flags, where):
    """The flag and value of ``--flag=value``, or of ``--flag`` and the next word."""
    flag, eq, value = word.partition("=")
    if flag not in flags:
        raise SchemaError(f"unknown option {flag} {where}")
    if not eq:
        value = next(words, None)
        if value is None:
            raise SchemaError(f"option {flag} needs a value")
    return flag, value


def parse_args(argv):
    """The namespace of one command line; a usage error raises ``SchemaError``.

    It holds ``command``, ``claim``, ``module``, ``function``, ``config`` and
    one attribute per path argument and option of the command.  ``--config``
    goes before the command; options and paths follow it in any order, an
    option written ``--flag value`` or ``--flag=value``, the last one given
    winning.  The word after a flag is its value, whatever it looks like.
    ``-h`` or ``--help`` anywhere else gives a namespace whose ``command``
    is None.
    """
    words = iter(argv)
    config = None
    for word in words:
        if word in HELP:
            return SimpleNamespace(command=None)
        if not word.startswith("-"):
            break
        _, config = _option(word, words, ("--config",), "before the command")
    else:
        raise SchemaError("missing command")
    command = word
    if command not in COMMANDS:
        raise SchemaError(f"unknown command {command!r}")
    claim, module, function, paths, options = COMMANDS[command]
    args = SimpleNamespace(command=command, claim=claim, module=module, function=function,
                           config=config)
    for dest, _, default, _ in options.values():
        setattr(args, dest, default)
    given = []
    for word in words:
        if word in HELP:
            return SimpleNamespace(command=None)
        if not word.startswith("-"):
            given.append(word)
            continue
        flag, value = _option(word, words, options, f"for {command}")
        dest, kind, _, _ = options[flag]
        try:
            setattr(args, dest, kind(value))
        except ValueError:
            raise SchemaError(f"option {flag} must be an integer, got {jsonio.echo(value)}")
    if len(given) != len(paths):
        raise SchemaError(f"{command} takes {len(paths)} path argument(s), got {len(given)}")
    missing = [flag for flag, (dest, _, _, required) in options.items()
               if required and getattr(args, dest) is None]
    if missing:
        raise SchemaError(f"{command} needs {' and '.join(missing)}")
    for dest, path in zip(paths, given):
        setattr(args, dest, path)
    return args


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    ``main()`` with no argv is the program: it reads ``sys.argv`` and, once
    the report is written, prepares the process to exit by freezing the
    garbage collector, so that the interpreter's shutdown collections skip
    every object the command built and imported.  atexit handlers, the
    flushes of stdout and stderr and the exit code are unchanged.
    ``main(argv)`` runs the command in a process that goes on and freezes
    nothing.
    """
    if argv is None:
        code = main(sys.argv[1:])
        gc.freeze()
        return code
    try:
        args = parse_args(argv)
        if args.command is None:
            return _print_usage()
        # an option left unset takes the config's value, or the default
        for key, value in _load_config(args.config).items():
            if key in vars(args) and getattr(args, key) is None:
                setattr(args, key, value)
        # the core's handlers are read from this module's namespace: under -m
        # it is __main__, and importing flattori.cli would compile it again.
        # A layer is imported by __import__, which -X importtime reports
        handler = globals()[args.function] if args.module == "cli" else getattr(
            __import__(f"flattori.{args.module}", fromlist=[args.function]), args.function)
        return _emit(args, *handler(args))
    except (SchemaError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FlatToriError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
