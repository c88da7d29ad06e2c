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
"""

import hashlib

from anchored import figures, instances, schemes, traceio

DESK_K = 2000

DIGESTS = {
    "comono_eag-comono_eag.csv":
        "c561d2f80117fd2fc89a1efeda034bfd9fd3cb4cf1527bd5ca43949e68fbb339",
    "eag-eag_constant.csv":
        "f7c6cb477886b9231c7ab1031752b91add512a8f9d0169024d5399ce989404b3",
    "eag-eag_varying.csv":
        "2173093cd24e9f99187bb6fa00c0c92977debfc852ad3b1eb3d1154a05d8a275",
    "eag-nag_eag.csv":
        "bd5f07b418d73a31e92526b6f17d0880eb0caf313a670197f8d37d0ca2b14ebd",
    "exam1.svg":
        "024dcfda1e13c87f05695984b960a6d6f9937ce870901ca4c5a84e13b931899b",
    "exam1_nesterov_omega.csv":
        "c5570f84bc9b29e97553728d086597b670a29016a94f3ef3603d804e786fe757",
    "exam1_nesterov_slow.csv":
        "6b80123d0fe82a21d71c4efe8c62d57a82441a995706948ba0d08af600e67a8c",
    "exam2.svg":
        "d7470fa997c54ab9550cd1cc5433e852799df2a301f4284283f205d204a31e52",
    "exam2_nag_eag.csv":
        "36f78711d82a8f892f2a057052d3726624793c8d5c749a65b0a3973d14205904",
    "exam2_nag_peag.csv":
        "b91fb271d851babf55b33c79aa525db573f0d6a6da681a09fccadb46b8bba529",
    "halpern-halpern_fast.csv":
        "3db302bbd8045a6150b0f905d879c83f102953eefc8a5b9e467ac1aebeafe223",
    "halpern-halpern_omega.csv":
        "14f53bcfca23fee39ec3c14829a83430ecfbd60174474064e29c868cb87343d8",
    "halpern-halpern_slow.csv":
        "a8eb2920beda693cfc6aaa634b586d39b68f13ea37add28e3b8f19f4f2ee524e",
    "nag_comono-nag_comono.csv":
        "bd8a05460b3bacc96c8d61a525929c0f827527b8fffe6ff25c2d41fc0b1380ee",
    "nag_eag-nag_eag.csv":
        "c716abd91e80a50def2ffd9249f0c1563b87eafe4f65e47967c199496e5fa92f",
    "nag_peag-nag_peag.csv":
        "b7b54a4ec7f993e1bae189a6144804c9cfef737d5d615a4d738af22437b8b60b",
    "nesterov-nesterov_fast.csv":
        "873e6d6dee9a407d1595bd6e62bd6a078e12f267808aae5770595f62ee687e8b",
    "nesterov-nesterov_omega.csv":
        "2989c3f1aafa99a8f19c437627a2366135089df48ecb5ce22e6e20e58861ab21",
    "nesterov-nesterov_slow.csv":
        "db559c3ec132a453d89dd390e135fadc23ab42b219ef3c0251471cd1dc2fa8c6",
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


def test_desk_outputs_are_byte_identical(tmp_path):
    ls = instances.desk_least_squares()
    hub = instances.desk_huber()
    bil = instances.desk_bilinear()
    opts = schemes.TraceOpts(snapshot_stride=0)
    for scheme, kinds in schemes.COMPATIBLE_SCHEDULES.items():
        for kind in kinds:
            inst, kw = _desk_case(scheme, kind, ls, hub, bil)
            solver = schemes.solver_for(inst.operator, scheme, kind, **kw)
            trace = schemes.run(solver, instances.start_point(inst), DESK_K,
                                opts)
            traceio.write_trace_csv(trace, tmp_path / f"{scheme}-{kind}.csv")
    for which in figures.FIGURES:
        figures.make_figure(which, "small", tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == DIGESTS
