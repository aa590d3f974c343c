"""Command line front end, and the only module that renders output.

The library returns plain values: a length is an ``int``, or ``None`` when
it is infinite. Every text line and JSON document is built here.

    thickenings length --m 3 --t 3            one local cohomology length
    thickenings table --m-min 3 --m-max 5 --t-min 1 --t-max 10
    thickenings decompose --m 3 --t 3         weight-by-weight layer listing
    thickenings verify --suite all            brute-force checks, exit 1 on failure

In JSON output, lengths and dimensions are decimal strings, because they
outgrow 64-bit integers quickly; m, t, epsilon and weight entries are numbers.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import verify as verify_suites
from .closed_forms import cumulative_length, layer_length_closed
from .cohomology import local_cohomology_length
from .filtration import layer_summands


class _Command(click.Command):
    """Reports the library's ``ValueError`` for a bad m, t or j as a usage error (exit 2)."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.BadParameter(str(exc), ctx=ctx) from exc


def _write_atomic(path: str, text: str) -> None:
    # Imported here, as only ``table --out`` needs it: at module level it
    # loads random, shutil, bz2 and lzma into every command's start-up.
    import tempfile

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".thickenings-")
    try:
        # mkstemp makes the file 0600; give it the mode a shell redirect would.
        # Setting and restoring the umask is safe: the CLI runs in one thread.
        umask = os.umask(0)
        os.umask(umask)
        with os.fdopen(fd, "w", newline="\n") as handle:
            os.fchmod(fd, 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@click.group()
def main():
    """Exact lengths of local cohomology of determinantal thickenings.

    R is the polynomial ring on a 2 x m matrix of variables, I the ideal of
    its 2 x 2 minors. The commands compute lengths of H^j_m(R/I^t) and
    cross-check every closed form against brute-force enumeration.
    """


@main.command(cls=_Command)
@click.option("--m", "m", type=int, required=True, help="Number of matrix columns, at least 3.")
@click.option("--t", "t", type=int, required=True, help="Power of the ideal, at least 1.")
@click.option("--j", "j", type=int, default=3, show_default=True, help="Cohomological index, 0..2m.")
@click.option("--json", "as_json", is_flag=True, help="Emit the JSON form instead of text.")
def length(m: int, t: int, j: int, as_json: bool):
    """Length of H^j_m(R/I^t): zero, finite, or infinite."""
    value = local_cohomology_length(m, t, j)
    kind = "infinite" if value is None else "finite" if value else "zero"
    if as_json:
        payload = {"kind": kind, "value": str(value)} if kind == "finite" else {"kind": kind}
        click.echo(json.dumps(payload))
    elif kind == "finite":
        click.echo(f"finite {value}")
    else:
        click.echo(kind)


@main.command(cls=_Command)
@click.option("--m-min", type=int, required=True)
@click.option("--m-max", type=int, required=True)
@click.option("--t-min", type=int, required=True)
@click.option("--t-max", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write atomically to a file instead of stdout.")
def table(m_min: int, m_max: int, t_min: int, t_max: int, fmt: str, out: str | None):
    """Layer and cumulative lengths over an (m, t) grid, m ascending then t."""
    if m_min > m_max or t_min > t_max:
        raise click.BadParameter("empty range")
    rows = []
    for m in range(m_min, m_max + 1):
        for t in range(t_min, t_max + 1):
            rows.append(
                {
                    "m": m,
                    "t": t,
                    "layer": str(layer_length_closed(m, t)),
                    "cumulative": str(cumulative_length(m, t)),
                }
            )
    if fmt == "csv":
        lines = ["m,t,layer,cumulative"]
        lines.extend(f"{r['m']},{r['t']},{r['layer']},{r['cumulative']}" for r in rows)
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(rows, indent=2) + "\n"
    if out is not None:
        try:
            _write_atomic(out, text)
        except OSError as exc:
            raise click.FileError(out, exc.strerror)
    else:
        click.echo(text, nl=False)


@main.command(cls=_Command)
@click.option("--m", "m", type=int, required=True)
@click.option("--t", "t", type=int, required=True)
@click.option("--json", "as_json", is_flag=True, help="Emit the summand list as JSON.")
def decompose(m: int, t: int, as_json: bool):
    """List the weight summands of the layer new at power t.

    Prints one line per summand and a final line comparing the summand
    total with the closed form; exits 1 on a mismatch.
    """
    summands = layer_summands(m, t)
    total = sum(s.dim for s in summands)
    closed = layer_length_closed(m, t)
    if as_json:
        payload = {
            "m": m,
            "t": t,
            "summands": [
                {
                    "epsilon": s.epsilon,
                    "lambda": list(s.gl2_weight),
                    "lambda_s": list(s.glm_weight),
                    "dim": str(s.dim),
                }
                for s in summands
            ],
            "total": str(total),
            "closed_form": str(closed),
            "match": total == closed,
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        for s in summands:
            click.echo(
                f"epsilon={s.epsilon}  lambda={tuple(s.gl2_weight)}  "
                f"lambda_s={tuple(s.glm_weight)}  dim={s.dim}"
            )
        marker = "match" if total == closed else "MISMATCH"
        click.echo(f"total={total}  closed_form={closed}  [{marker}]")
    if total != closed:
        sys.exit(1)


@main.command()
@click.option(
    "--suite",
    type=click.Choice(list(verify_suites.SUITE_NAMES) + ["all"]),
    required=True,
)
@click.option("--max-m", type=click.IntRange(min=3), help="Upper m bound, read by the decomposition and catalan suites.")
@click.option("--max-t", type=click.IntRange(min=1), help="Upper t bound, read by the zset and decomposition suites.")
@click.option("--max-b", type=click.IntRange(min=0), help="Upper b bound, read by the identities suite.")
def verify(suite: str, max_m: int | None, max_t: int | None, max_b: int | None):
    """Run brute-force verification suites; exit 0 only if every case passes.

    The schur suite reads no bound. A suite that checks no case fails.
    """
    results = verify_suites.run(suite, max_m=max_m, max_t=max_t, max_b=max_b)
    failed = False
    for result in results:
        if not result.cases:
            click.echo(f"{result.name}: FAIL (no case checked)")
        else:
            status = "PASS" if result.passed else f"FAIL ({len(result.failures)} failed)"
            click.echo(f"{result.name}: {status} ({result.cases} cases)")
        for detail in result.failures[:5]:
            click.echo(f"  {detail}")
        if len(result.failures) > 5:
            click.echo(f"  ... and {len(result.failures) - 5} more")
        failed = failed or not result.passed
    if failed:
        sys.exit(1)
    click.echo("all checks passed")


if __name__ == "__main__":
    main()
