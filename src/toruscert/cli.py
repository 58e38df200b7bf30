"""Command-line front end.

Exit codes: 0 success, 1 verdict violation or failed verification, 2 scale
limit, 3 broken internal invariant (an engine bug), 64 usage error (including
a ``TORUSCERT_MAX_S``/``TORUSCERT_MAX_T`` that is not a positive integer, a
``certify --mode`` other than the case's own, and a file that cannot be
opened, such as a ``--json`` path in a missing directory, which fails after
the work is done).
"""
from __future__ import annotations

import json
import sys

import click

from toruscert import fileformat
from toruscert._version import ENGINE_NAME, ENGINE_VERSION
from toruscert.certifier import CaseParams, case_mode, certify_case, distance_forcing
from toruscert.constraints import (
    check_jn1,
    check_no_double_parallel,
    check_parity_rule,
    detect_s_cycles,
    check_reduced_torus_degrees,
    negative_size_bound,
    polarization_consequences,
    positive_size_bound,
)
from toruscert.embedded import reduce_graph
from toruscert.errors import GraphError, InvariantViolation, ScaleLimit, WrongDelta
from toruscert.homology import scan_klein_slopes, solve_klein_slopes
from toruscert.perms import InducedPermutation, orbit_count
from toruscert import verify as verify_mod

_POL = click.Choice(["polarized", "neutral"])
_MODES = {"enumerate": "enumeration", "count": "counting"}
_POSITIVE = click.IntRange(min=1)


@click.group()
@click.version_option(ENGINE_VERSION, prog_name=ENGINE_NAME)
def cli():
    """Exhaustive certification of torus intersection-graph cases."""


# ---------------------------------------------------------------------- certify


@cli.command()
@click.option("--s", "s_", type=int, required=True, help="boundary count of the first surface")
@click.option("--t", "t_", type=int, required=True, help="boundary count of the second surface")
@click.option("--delta", type=int, required=True, help="slope distance")
@click.option(
    "--mode",
    type=click.Choice(["auto", *_MODES]),
    default="auto",
    help="check that the case is settled in this mode; the case fixes it",
)
@click.option("--s-polarity", type=_POL, default=None)
@click.option("--t-polarity", type=_POL, default=None)
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
@click.option("--timing", is_flag=True, help="include wall time in the JSON output")
def certify(s_, t_, delta, mode, s_polarity, t_polarity, json_path, timing):
    """Certify one case: enumerate candidate configurations or count degrees."""
    params = CaseParams(s_, t_, delta, s_polarity, t_polarity)
    if mode != "auto" and _MODES[mode] != case_mode(params):
        raise click.UsageError(
            f"--mode {mode}: case s={s_} t={t_} is settled in {case_mode(params)} mode"
        )
    cert = certify_case(params)
    click.echo(f"case s={s_} t={t_} delta={delta} mode={cert.mode}")
    if cert.mode == "enumeration":
        click.echo(f"survivors: {cert.survivors}")
    else:
        click.echo(f"distance bound: {cert.delta_bound}")
    for entry in cert.constraint_log:
        click.echo(
            f"  {entry['name']}: applied {entry['applied']}, eliminated {entry['eliminated']}"
        )
    for note in cert.notes:
        click.echo(f"  note: {note}")
    if cert.elapsed_ms is not None:
        click.echo(f"elapsed: {cert.elapsed_ms:.1f} ms")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(cert.to_json(timing=timing))
        click.echo(f"certificate written to {json_path}")
    return 0


# ---------------------------------------------------------------------- lemma


@cli.group()
def lemma():
    """Run a single checker and print its verdict."""


def _finish(verdict):
    if verdict.satisfied:
        click.echo(f"{verdict.name}: satisfied")
        return 0
    click.echo(f"{verdict.name}: VIOLATED {json.dumps(verdict.witness, sort_keys=True)}")
    click.get_current_context().exit(1)


@lemma.command("parity")
@click.option("--sign-s", type=int, required=True)
@click.option("--sign-t", type=int, required=True)
def lemma_parity(sign_s, sign_t):
    """An arc is positive on one side iff negative on the other."""
    for name, sign in (("--sign-s", sign_s), ("--sign-t", sign_t)):
        if sign not in (1, -1):
            raise click.UsageError(f"{name} must be 1 or -1, not {sign}")
    return _finish(check_parity_rule(sign_s, sign_t))


@lemma.command("no-double-parallel")
@click.option(
    "--pairs",
    required=True,
    help="space-separated family pairs, e.g. '0:1 0:2 1:1'",
)
def lemma_no_double_parallel(pairs):
    """No two arcs share a family on both sides."""
    pairing = []
    for chunk in pairs.split():
        a, b = chunk.split(":")
        pairing.append((int(a), int(b)))
    return _finish(check_no_double_parallel(pairing))


@lemma.command("pos-size")
@click.option("--t", "t_", type=_POSITIVE, required=True, help="partner boundary count")
@click.option("--size", type=_POSITIVE, required=True)
@click.option("--alpha", type=int, default=None)
def lemma_pos_size(t_, size, alpha):
    """Size cap for positive families with the structure forced at the cap."""
    rule = positive_size_bound(t_)
    click.echo(f"bound: {rule.bound}")
    return _finish(rule.check(size, alpha=alpha))


@lemma.command("neg-size")
@click.option("--t", "t_", type=_POSITIVE, required=True, help="partner boundary count")
@click.option("--size", type=_POSITIVE, required=True)
@click.option("--delta", type=_POSITIVE, default=None)
@click.option("--exceptional/--no-exceptional", default=False,
              help="route oversized families to the exceptional classification")
def lemma_neg_size(t_, size, delta, exceptional):
    """Size cap for negative families (partner count + 1)."""
    rule = negative_size_bound(t_, allow_exceptional=exceptional)
    click.echo(f"bound: {rule.bound}")
    return _finish(rule.check(size, delta=delta))


@lemma.command("polarization")
@click.option("--t", "t_", type=int, required=True)
@click.option("--size", type=int, required=True)
@click.option("--alpha", type=int, required=True)
def lemma_polarization(t_, size, alpha):
    """Single-orbit and polarization consequences of an oversized negative family."""
    return _finish(polarization_consequences(t_, size, alpha))


@lemma.command("s-cycles")
@click.option("--input", "path", type=click.Path(exists=True, dir_okay=False), required=True)
def lemma_s_cycles(path):
    """List the S-cycle faces of a graph file."""
    g = fileformat.load(path)
    found = detect_s_cycles(g)
    if not found:
        click.echo("no S-cycle faces")
    for face_index, pair in found:
        click.echo(f"face {face_index}: type {{{pair[0]},{pair[1]}}}")
    return 0


@lemma.command("jn1")
@click.option("--order-u", required=True, help="comma-separated point ids around u")
@click.option("--order-v", required=True, help="comma-separated point ids around v")
def lemma_jn1(order_u, order_v):
    """Same cyclic order around both vertices, up to reflection."""
    u = [x.strip() for x in order_u.split(",")]
    v = [x.strip() for x in order_v.split(",")]
    return _finish(check_jn1(u, v))


@lemma.command("degree-face")
@click.option("--input", "path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--reduce", "do_reduce", is_flag=True, help="amalgamate parallel families first")
def lemma_degree_face(path, do_reduce):
    """Degree/face dichotomy for a reduced graph on a torus."""
    g = fileformat.load(path)
    target = reduce_graph(g).graph if do_reduce else g.fat
    return _finish(check_reduced_torus_degrees(target))


@lemma.command("distance-forcing")
@click.option("--t", "t_", type=_POSITIVE, required=True)
@click.option("--delta", type=_POSITIVE, required=True)
@click.option("--negative-size", type=_POSITIVE, default=None)
def lemma_distance_forcing(t_, delta, negative_size):
    """Distance forcing: distance 6, degree 6 and full-size families, or the
    contradiction for a distance above 6 or an oversized hypothetical family."""
    forcing = distance_forcing(t_, delta, negative_family_size=negative_size)
    if not forcing.applicable:
        click.echo("not applicable (needs partner count >= 3 and distance >= 6)")
        return 0
    if forcing.contradiction:
        click.echo(f"contradiction: {json.dumps(forcing.contradiction, sort_keys=True)}")
        click.get_current_context().exit(1)
    click.echo(
        f"forced: distance={forcing.delta} reduced degree={forcing.reduced_degree}"
        f" family size={forcing.family_size}"
    )
    return 0


# ---------------------------------------------------------------------- perm


@cli.command()
@click.option("--n", "n_", type=_POSITIVE, required=True, help="label modulus")
@click.option("--alpha", type=int, required=True)
@click.option("--epsilon", type=int, required=True)
def perm(n_, alpha, epsilon):
    """Print the induced permutation and its orbit decomposition."""
    p = InducedPermutation(n_, alpha % n_, epsilon)
    click.echo(f"rule: x -> {alpha} - ({epsilon})*x mod {n_}")
    click.echo(f"mapping: {p.mapping()}")
    dec = orbit_count(p)
    click.echo(f"orbits ({dec.count}): {dec.orbits}")
    if p.is_identity():
        click.echo("identity permutation: forbidden when the partner surface is orientable")
    if p.fixed_points() and epsilon == 1:
        click.echo(f"fixed points {p.fixed_points()}: forbidden for a positive family")
    return 0


# ---------------------------------------------------------------------- klein


@cli.command()
@click.option("--m", "m_", type=int, default=None, help="gluing parameter")
@click.option(
    "--scan", type=click.IntRange(min=0), default=None, help="scan 0..MAX and tabulate"
)
def klein(m_, scan):
    """Solve the punctured Klein bottle slope classification."""
    if (m_ is None) == (scan is None):
        raise click.UsageError("give exactly one of --m or --scan")
    if scan is not None:
        hits = dict(scan_klein_slopes(scan))
        for m in range(scan + 1):
            if m in hits:
                sol = hits[m]
                click.echo(
                    f"m={m}: q={sol.q} alpha=mu0-({sol.distance})lambda0 distance={sol.distance}"
                )
            else:
                click.echo(f"m={m}: none")
        return 0
    sol = solve_klein_slopes(m_)
    if sol is None:
        click.echo(f"m={m_}: no punctured Klein bottle slope")
        return 0
    click.echo(
        f"m={m_}: q={sol.q} alpha=mu0-({sol.distance})lambda0 distance={sol.distance}"
    )
    return 0


# ---------------------------------------------------------------------- verify


@cli.command("verify-all")
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None)
@click.option("--workers", type=_POSITIVE, default=1, show_default=True)
def verify_all(json_path, workers):
    """Run the whole acceptance suite, one pass/fail line per criterion."""
    results = verify_mod.run_all(workers=workers)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"[{status}] {r.name} ({r.elapsed_s:.2f}s) {r.details}")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(verify_mod.report_json(results))
        click.echo(f"summary written to {json_path}")
    if not all(r.passed for r in results):
        click.get_current_context().exit(1)
    return 0


def main(argv=None):
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        return rv if isinstance(rv, int) else 0
    except click.exceptions.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 64
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.Abort:
        return 130
    except ScaleLimit as exc:
        click.echo(f"scale limit: {exc}", err=True)
        return 2
    except InvariantViolation as exc:
        click.echo(f"internal invariant violated: {exc}", err=True)
        return 3
    except WrongDelta as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except GraphError as exc:
        click.echo(f"graph rejected: {exc}", err=True)
        return 1
    except ValueError as exc:
        click.echo(f"invalid request: {exc}", err=True)
        return 64
    except OSError as exc:
        click.echo(f"file error: {exc}", err=True)
        return 64


if __name__ == "__main__":
    sys.exit(main())
