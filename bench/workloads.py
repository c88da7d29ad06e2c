"""The three benchmark workloads and the checks on their outputs.

Each workload is a function of one pass: ``fn(probe, seed, out_dir)``
returns the pass outputs, and its checker turns outputs into attempted
and failed operations. Every pass builds its instances through the
probe, so set-up is part of the pass.

desk_sweep
    What ``anchored run`` and ``anchored figure --scale small`` do: all
    15 (scheme, schedule) pairs of ``COMPATIBLE_SCHEDULES`` on their desk
    instances for 2000 steps without snapshots, each trace written as
    CSV, then figures exam1 and exam2. The Python hot loop dominates
    (schedules, step arithmetic, ``_check``, norms); the operator is
    about a quarter of a ``halpern`` step.
verify_small
    ``verify.run_suites("all", "small")``, the users' certification
    command: stride-1 snapshots, potential series, sampled
    co-coercivity of the residual operators, the affine resolvent.
paper_lemmas
    ``verify.lemmas_suite("paper")`` at 500x1000 and 1000x750 for 5000
    steps: operator GEMVs, the dense affine resolvent and the
    re-evaluation in ``peag_potential_series`` dominate, and stride-1
    snapshots set the memory peak.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from anchored import figures, schemes, traceio, verify

DESK_K = 2000
RESIDUAL_RTOL = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_desk.json")
#: instance seeds 0 .. REFERENCE_SEEDS-1 have recorded desk outputs
REFERENCE_SEEDS = 64


def instance_seed(seed):
    """Instance seed of a workload seed: every seed maps to a recorded one.

    The desk gate needs recorded outputs for the instances it runs, so
    workload seeds are taken modulo ``REFERENCE_SEEDS``.
    """
    return seed % REFERENCE_SEEDS


@dataclass
class Output:
    """One output of a pass: its file, final value and run error.

    The value is a run's final residual or a figure curve's fitted slope;
    an SVG has none.
    """

    path: str
    value: Optional[float] = None
    error: Optional[str] = None


def _final_residual(trace):
    value = trace.norm_g_y[-1]
    return float(trace.norm_g_z[-1] if math.isnan(value) else value)


def _desk_case(scheme, kind, ls, hub, bil):
    """Instance and schedule keywords of one pair, as verify uses them."""
    if scheme in ("halpern", "nesterov"):
        return ls, {}
    if scheme in ("comono_eag", "nag_comono"):
        return bil, {"rho": -1.0 / (4.0 * bil.operator.lipschitz)}
    L = hub.operator.lipschitz
    if kind == "eag_varying":
        return hub, {"eta0": 0.5 / L}
    if kind == "peag_legacy":
        return hub, {"eta0": 0.4 / L}
    return hub, {}


def desk_sweep(probe, seed, out_dir):
    ls = probe.instance("desk_least_squares")()
    hub = probe.instance("desk_huber")()
    bil = probe.instance("desk_bilinear")()
    starts = {id(inst): probe.start_point(inst) for inst in (ls, hub, bil)}
    opts = schemes.TraceOpts(snapshot_stride=0)
    outputs = {}
    for scheme, kinds in schemes.COMPATIBLE_SCHEDULES.items():
        for kind in kinds:
            inst, kw = _desk_case(scheme, kind, ls, hub, bil)
            solver = schemes.solver_for(inst.operator, scheme, kind, **kw)
            trace = schemes.run(solver, starts[id(inst)], DESK_K, opts)
            path = os.path.join(out_dir, f"{scheme}-{kind}.csv")
            traceio.write_trace_csv(trace, path)
            outputs[f"{scheme}/{kind}"] = Output(path, _final_residual(trace),
                                                 trace.error)
    for which in figures.FIGURES:
        csv_paths, svg_path, slopes = figures.make_figure(which, "small",
                                                          out_dir, seed=seed)
        for label, path in zip(slopes, csv_paths):
            outputs[f"{which}/{label}"] = Output(path, slopes[label])
        outputs[f"{which}/svg"] = Output(svg_path)
    return outputs


def verify_small(probe, seed, out_dir):
    return verify.run_suites("all", "small")


def paper_lemmas(probe, seed, out_dir):
    return verify.lemmas_suite("paper")


WORKLOADS = {
    "desk_sweep": desk_sweep,
    "verify_small": verify_small,
    "paper_lemmas": paper_lemmas,
}


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def desk_record(outputs):
    """Reference form of a desk pass: name -> [final value, file digest]."""
    return {name: [out.value, digest(out.path)]
            for name, out in outputs.items()}


class MissingReference(Exception):
    """The desk reference has no outputs for an instance seed."""


def load_reference(seed, path=REFERENCE_PATH):
    """Recorded desk outputs for instance seed ``seed``."""
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    if table["K"] != DESK_K:
        raise MissingReference("desk reference was recorded at another K")
    row = table["seeds"].get(str(seed))
    if row is None:
        raise MissingReference(
            f"no desk reference for instance seed {seed}; record seeds "
            f"0..{REFERENCE_SEEDS - 1} with bench/make_reference.py at the "
            "parent commit")
    return dict(zip(table["names"], row))


@dataclass
class Tally:
    """Correctness findings accumulated over the passes of a run."""

    attempted: int = 0
    failed: int = 0
    numeric_errors: int = 0
    digest_mismatches: int = 0
    figure_digest_mismatches: int = 0
    skipped: int = 0
    findings: list = field(default_factory=list)

    def note(self, text):
        if len(self.findings) < 20:
            self.findings.append(text)


class DeskChecker:
    """Compares each desk pass with the recorded reference for its seed."""

    def __init__(self, reference):
        self.reference = reference

    def __call__(self, outputs, tally):
        record = desk_record(outputs)
        for name, out in outputs.items():
            ref_value, ref_digest = self.reference.get(name, (None, None))
            if out.value is not None:
                tally.attempted += 1
                if out.error is not None:
                    tally.failed += 1
                    tally.numeric_errors += 1
                    tally.note(f"{name}: {out.error}")
                elif not _close(out.value, ref_value):
                    tally.failed += 1
                    tally.note(f"{name}: final value {out.value!r} "
                               f"!= reference {ref_value!r}")
            if record[name][1] != ref_digest:
                if name.split("/")[0] in figures.FIGURES:
                    tally.figure_digest_mismatches += 1
                else:
                    tally.digest_mismatches += 1
                tally.note(f"{name}: output bytes differ from the reference")


def _close(value, ref):
    if ref is None or not math.isfinite(value):
        return False
    return abs(value - ref) <= RESIDUAL_RTOL * abs(ref)


def check_verify(results, tally):
    """Every FAIL is a failed operation; SKIPs are counted, not passed."""
    for r in results:
        tally.attempted += 1
        if r.skipped:
            tally.skipped += 1
            tally.note(f"SKIP {r.name}: {r.detail}")
        elif not r.ok:
            tally.failed += 1
            tally.note(f"FAIL {r.name}: {r.detail}")


def checker(workload, seed):
    if workload == "desk_sweep":
        return DeskChecker(load_reference(seed))
    return check_verify
