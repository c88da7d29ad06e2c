"""Byte-identity guard for the desk outputs at the desk seed.

Every trace CSV that ``anchored run`` writes for the 15 scheme/schedule
pairs on their desk instances (2000 steps, no snapshots), and the CSVs
and SVGs of ``anchored figure --scale small``, must keep these sha256
digests. Speed-ups to the hot loop are meant to leave every byte as it
is; a change that moves one has to say why and record new digests here.
The digests hold for IEEE double arithmetic with the BLAS the package
was measured on (OpenBLAS through numpy 2.4 on x86-64); another BLAS may
sum a matrix-vector product in another order. The thread count matters
too: with 2, 3 or 4 OpenBLAS threads the bytes agree, but under
``OPENBLAS_NUM_THREADS=1`` the least-squares ``halpern`` and
``nesterov`` CSVs get other bytes.

The benchmark's desk gate reads values, not bytes: each run's final
residual and each figure curve's fitted slope must lie within 1e-9
relative of the instance seed's row of ``bench/reference_desk.json``.
The same comparison runs here at the desk seed, on the same outputs.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from anchored import figures, instances, schemes, traceio

DESK_K = 2000
REFERENCE = (Path(__file__).resolve().parents[1] / "bench"
             / "reference_desk.json")
VALUE_RTOL = 1e-9

DIGESTS = {
    "comono_eag-comono_eag.csv":
        "26b0c0ab4fa95b6885a015efbb6456494ef837f308e3f8339408bc90695bbee2",
    "eag-eag_constant.csv":
        "f7c6cb477886b9231c7ab1031752b91add512a8f9d0169024d5399ce989404b3",
    "eag-eag_varying.csv":
        "2173093cd24e9f99187bb6fa00c0c92977debfc852ad3b1eb3d1154a05d8a275",
    "eag-nag_eag.csv":
        "bd5f07b418d73a31e92526b6f17d0880eb0caf313a670197f8d37d0ca2b14ebd",
    "exam1.svg":
        "024dcfda1e13c87f05695984b960a6d6f9937ce870901ca4c5a84e13b931899b",
    "exam1_nesterov_omega.csv":
        "93ac256c7b3423f3df399c20ffb98726fa68985a722d3eaa052917c325408915",
    "exam1_nesterov_slow.csv":
        "77fbdcbafcb4c022e0c0015ccafe391bbe45df3bc433c350389c2cff9014c5c3",
    "exam2.svg":
        "488aa8cc42dd3293be4b9f7febc15bbb92438b4db7c5857189f9dd567094758d",
    "exam2_nag_eag.csv":
        "1de2556f18bb457e50f58ba796188988b700f918c354256823e631ea5d4f88d0",
    "exam2_nag_peag.csv":
        "3b0845f73112d1ce639cb164d42a41c6c0c43f6bc813fea5b2473fe97af3a84c",
    "halpern-halpern_fast.csv":
        "18966879321ba03dea1ec7b5de9127781ef67e3d85ed943312482a68f61d8f47",
    "halpern-halpern_omega.csv":
        "aafcfed0748506fb743317ecac0bb3f2ea020749a90c214218d7dd9382f8badc",
    "halpern-halpern_slow.csv":
        "15ede90e39693161d4375210971b9d922ff8a883ca66e86746246f3453c22bed",
    "nag_comono-nag_comono.csv":
        "feb2320c180a5b57c665fbdf18ad08aab76aa84e087d7e4e36ab2f579494592d",
    "nag_eag-nag_eag.csv":
        "5ed5cbc62c42039aef9cf3fdb2d20a1f88f7497987037716678cc5933c26943a",
    "nag_peag-nag_peag.csv":
        "94b954138f8014979ef3c1d375df2addd94e3a0d4b8c773dc593417189438169",
    "nesterov-nesterov_fast.csv":
        "9d007b218044412bd0c10a9300db9537bae87bbe410214d8bf75d309c8ed2016",
    "nesterov-nesterov_omega.csv":
        "41dc766ff35340a906b2c3fa3a05c2caad839c204afb0dc3a1199ad84d0a2beb",
    "nesterov-nesterov_slow.csv":
        "38c7e55e222730fe1758272f4731603adc28bd63e9036723e9a7c8632ec035a1",
    "peag-peag.csv":
        "2bed0ce74e18f37d1762adf2c9a9810a409f8c479b178fb8625059707cd98995",
    "peag-peag_legacy.csv":
        "b9d7b2d48201720998b99d24a69e9cffb04cccc0512942bc86a51b4525c4dd93",
}


def _desk_case(scheme, kind, ls, hub, bil):
    """Instance and schedule keywords of one pair, as ``verify`` uses them."""
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


def reference_values(seed):
    """The recorded final value of each output at instance seed ``seed``."""
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert table["K"] == DESK_K
    return {name: value for name, (value, _digest)
            in zip(table["names"], table["seeds"][str(seed)])
            if value is not None}


REFERENCE_ROW = reference_values(instances.DESK_SEED)


def final_residual(trace):
    """|G y_K|, or |G z_K| for the schemes that track only z."""
    value = trace.norm_g_y[-1]
    return float(trace.norm_g_z[-1] if math.isnan(value) else value)


def value_mismatches(values, reference):
    """The outputs whose value is not within VALUE_RTOL of the reference."""
    return sorted(name for name, ref in reference.items()
                  if not abs(values[name] - ref) <= VALUE_RTOL * abs(ref))


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """(sha256 of each output file, final value of each output)."""
    out = tmp_path_factory.mktemp("desk")
    ls = instances.desk_least_squares()
    hub = instances.desk_huber()
    bil = instances.desk_bilinear()
    opts = schemes.TraceOpts(snapshot_stride=0)
    values = {}
    for scheme, kinds in schemes.COMPATIBLE_SCHEDULES.items():
        for kind in kinds:
            inst, kw = _desk_case(scheme, kind, ls, hub, bil)
            solver = schemes.solver_for(inst.operator, scheme, kind, **kw)
            trace = schemes.run(solver, instances.start_point(inst), DESK_K,
                                opts)
            traceio.write_trace_csv(trace, out / f"{scheme}-{kind}.csv")
            values[f"{scheme}/{kind}"] = final_residual(trace)
    for which in figures.FIGURES:
        _, _, slopes = figures.make_figure(which, "small", out)
        values.update({f"{which}/{label}": slope
                       for label, slope in slopes.items()})
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()}
    return digests, values


def test_desk_outputs_are_byte_identical(desk):
    assert desk[0] == DIGESTS


def test_desk_values_are_within_the_benchmark_gate(desk):
    values = desk[1]
    assert set(values) == set(REFERENCE_ROW)
    assert value_mismatches(values, REFERENCE_ROW) == []


@pytest.mark.parametrize("name", sorted(REFERENCE_ROW))
def test_value_gate_fails_a_reference_off_by_1e_6(desk, name):
    reference = dict(REFERENCE_ROW, **{name: REFERENCE_ROW[name] * (1 + 1e-6)})
    assert value_mismatches(desk[1], reference) == [name]
