"""Command line front end, and the only module that renders output.

The library returns plain values: a length is an ``int``, or ``None`` when
it is infinite. Every text line and JSON document is built here.

    thickenings length --m 3 --t 3            one local cohomology length
    thickenings table --m-min 3 --m-max 5 --t-min 1 --t-max 10
    thickenings decompose --m 3 --t 3         weight-by-weight layer listing
    thickenings verify --suite all            brute-force checks, exit 1 on failure

In JSON output, lengths and dimensions are decimal strings, because they
outgrow 64-bit integers quickly; m, t, epsilon and weight entries are numbers.
Templates lay JSON out as ``json.dumps`` prints it; ``decompose --json`` alone imports ``json``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable
from itertools import chain, islice
from types import SimpleNamespace

from . import verify as verify_suites
from .closed_forms import cumulative_length, layer_length_closed
from .cohomology import local_cohomology_length
from .filtration import layer_summands


_HELP = "Show this message and exit."
# ``table``'s head, row template, separator and tail per format. As for ``length --json``, the JSON
# is laid out as ``json.dumps(rows, indent=2)`` prints it; only ``decompose --json`` imports ``json``.
_TABLE = {
    "csv": ("m,t,layer,cumulative\n", "{},{},{},{}\n", "", ""),
    "json": ("[\n", '  {{\n    "m": {},\n    "t": {},\n    "layer": "{}",\n    "cumulative": "{}"\n  }}', ",\n", "\n]\n"),
}


class _Main:
    """The ``thickenings`` command: ``main()`` runs ``sys.argv[1:]``.

    ``commands`` maps a name to its ``options`` and the ``callback`` that
    takes them as keywords and returns 1 to fail. The callback is looked up
    at each run, so a wrapper set on it (``bench/tracer.py`` sets one) runs.
    """

    def __init__(self, description: str):
        self.description = description
        self.commands: dict[str, SimpleNamespace] = {}

    def command(self, *options):
        def register(callback):
            self.commands[callback.__name__] = SimpleNamespace(callback=callback, options=options)
            return callback

        return register

    def main(self, args: list[str] | None = None, prog_name: str = "thickenings") -> None:
        """Run one command line: return when it succeeds, else raise ``SystemExit``.

        ``--help`` exits 0. A library ``ValueError`` is a usage error (exit 2).
        An interrupt prints ``Aborted!`` and exits 1; a closed pipe exits 1
        silently; any other exception prints one ``Error:`` line and exits 1.
        Exact lengths are read and printed at any size: the ``str(int)``
        digit limit is lifted for the run and put back after it.
        """
        if not hasattr(sys, "set_int_max_str_digits"):
            return self._run(args, prog_name)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            self._run(args, prog_name)
        finally:
            sys.set_int_max_str_digits(limit)

    __call__ = main

    def _run(self, args: list[str] | None, prog_name: str) -> None:
        parser = argparse.ArgumentParser(prog=prog_name, description=self.description, add_help=False, allow_abbrev=False)
        parser.add_argument("--help", action="help", help=_HELP)
        subparsers = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
        for name, command in self.commands.items():
            doc = command.callback.__doc__ or ""
            sub = subparsers.add_parser(name, help=doc.split("\n")[0], description=doc, add_help=False, allow_abbrev=False)
            for flag, spec in (("--help", dict(action="help", help=_HELP)), *command.options):
                sub.add_argument(flag, **spec)
        kwargs = vars(parser.parse_args(args))
        name = kwargs.pop("command")
        try:
            status = self.commands[name].callback(**kwargs)
            sys.stdout.flush()
        except ValueError as exc:
            subparsers.choices[name].error(str(exc))
        except KeyboardInterrupt:
            print("\nAborted!", file=sys.stderr)
            sys.exit(1)
        except BrokenPipeError:
            # Point stdout at devnull, so the flush at exit cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        except Exception as exc:
            print(f"Error: {exc}", file=sys.stderr)
            sys.exit(1)
        if status:
            sys.exit(status)


def _write_atomic(path: str, pieces: Iterable[str]) -> None:
    # Writes the pieces as they come. If one raises, ``path`` is left as it was.
    # Through a symlink, the temp file goes beside the link's target and
    # replaces the target, as a shell redirect writes through the link.
    # The kernel masks os.open's 0o666 as it does a shell redirect's mode.
    # O_EXCL refuses a temp file that a killed run with this pid left behind;
    # that error names the temp file, and any other names the path given.
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except FileExistsError:
        raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.writelines(pieces)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


main = _Main(
    """Exact lengths of local cohomology of determinantal thickenings.

    R is the polynomial ring on a 2 x m matrix of variables, I the ideal of
    its 2 x 2 minors. The commands compute lengths of H^j_m(R/I^t) and
    cross-check every closed form against brute-force enumeration.
    """
)


@main.command(
    ("--m", dict(type=int, required=True, help="Number of matrix columns, at least 3.")),
    ("--t", dict(type=int, required=True, help="Power of the ideal, at least 1.")),
    ("--j", dict(type=int, default=3, help="Cohomological index, 0..2m (default: %(default)s).")),
    ("--json", dict(dest="as_json", action="store_true", help="Emit the JSON form instead of text.")),
)
def length(m: int, t: int, j: int, as_json: bool):
    """Length of H^j_m(R/I^t): zero, finite, or infinite."""
    value = local_cohomology_length(m, t, j)
    kind = "infinite" if value is None else "finite" if value else "zero"
    if as_json:
        print(f'{{"kind": "finite", "value": "{value}"}}' if kind == "finite" else f'{{"kind": "{kind}"}}')
    elif kind == "finite":
        print(f"finite {value}")
    else:
        print(kind)


@main.command(
    ("--m-min", dict(type=int, required=True, help="Smallest m, at least 3.")),
    ("--m-max", dict(type=int, required=True, help="Largest m, at least --m-min.")),
    ("--t-min", dict(type=int, required=True, help="Smallest t, at least 1.")),
    ("--t-max", dict(type=int, required=True, help="Largest t, at least --t-min.")),
    ("--format", dict(dest="fmt", choices=["csv", "json"], default="csv", help="Output format (default: %(default)s).")),
    ("--out", dict(metavar="FILE", help="Write atomically to a file instead of stdout.")),
)
def table(m_min: int, m_max: int, t_min: int, t_max: int, fmt: str, out: str | None) -> None:
    """Layer and cumulative lengths over an (m, t) grid, m ascending then t."""
    if m_min > m_max or t_min > t_max:
        raise ValueError("empty range")
    if out is not None and os.path.isdir(os.path.realpath(out)):
        raise ValueError(f"--out {out!r} is a directory")
    head, row, sep, tail = _TABLE[fmt]
    grid = ((m, t) for m in range(m_min, m_max + 1) for t in range(t_min, t_max + 1))
    items = (row.format(m, t, layer_length_closed(m, t), cumulative_length(m, t)) for m, t in grid)
    # The first row is made before anything is written, so a bad m or t is
    # a usage error with no output and no temp file, and it takes no separator.
    pieces = chain([head, next(items)], (sep + item for item in items), [tail])
    if out is not None:
        _write_atomic(out, pieces)
    else:
        # 1024 rows per write: unbuffered, a closing reader cuts one write
        # short without an error, and only the next write raises ``BrokenPipeError``.
        while batch := list(islice(pieces, 1024)):
            sys.stdout.write("".join(batch))


@main.command(
    ("--m", dict(type=int, required=True, help="Number of matrix columns, at least 3.")),
    ("--t", dict(type=int, required=True, help="Power of the ideal whose new layer is listed, at least 1.")),
    ("--json", dict(dest="as_json", action="store_true", help="Emit the summand list as JSON.")),
)
def decompose(m: int, t: int, as_json: bool) -> int | None:
    """List the weight summands of the layer new at power t.

    Prints one line per summand and a final line comparing the summand
    total with the closed form; exits 1 on a mismatch.
    """
    summands = layer_summands(m, t)
    total = sum(s.dim for s in summands)
    closed = layer_length_closed(m, t)
    if as_json:
        import json
        payload = {
            "m": m,
            "t": t,
            "summands": [
                {
                    "epsilon": s.epsilon,
                    "lambda": s.gl2_weight,
                    "lambda_s": s.glm_weight,
                    "dim": str(s.dim),
                }
                for s in summands
            ],
            "total": str(total),
            "closed_form": str(closed),
            "match": total == closed,
        }
        print(json.dumps(payload, indent=2))
    else:
        for s in summands:
            print(
                f"epsilon={s.epsilon}  lambda={tuple(s.gl2_weight)}  "
                f"lambda_s={tuple(s.glm_weight)}  dim={s.dim}"
            )
        marker = "match" if total == closed else "MISMATCH"
        print(f"total={total}  closed_form={closed}  [{marker}]")
    if total != closed:
        return 1


def _bound_option(name: str):
    least, most = verify_suites.BOUNDS[name]
    defaults = ", ".join(f"{row[name]} for {suite}" for suite, row in verify_suites.SUITES.items() if name in row)
    text = f"Upper {name[-1]} bound, {least}..{most} (default: {defaults})."
    return f"--{name.replace('_', '-')}", dict(type=int, help=text)


@main.command(
    ("--suite", dict(choices=[*verify_suites.SUITES, "all"], required=True, help="Suite to run, or all of them.")),
    *map(_bound_option, verify_suites.BOUNDS),
)
def verify(suite: str, **bounds: int | None) -> int | None:
    """Run brute-force verification suites; exit 0 only if every case passes.

    The schur suite reads no bound. A suite that checks no case fails.
    """
    results = verify_suites.run(suite, **bounds)
    failed = False
    for result in results:
        if not result.cases:
            print(f"{result.name}: FAIL (no case checked)")
        else:
            status = "PASS" if result.passed else f"FAIL ({len(result.failures)} failed)"
            print(f"{result.name}: {status} ({result.cases} cases)")
        for detail in result.failures[:5]:
            print(f"  {detail}")
        if len(result.failures) > 5:
            print(f"  ... and {len(result.failures) - 5} more")
        failed = failed or not result.passed
    if failed:
        return 1
    print("all checks passed")


if __name__ == "__main__":
    main()
