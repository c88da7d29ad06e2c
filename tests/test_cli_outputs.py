"""Byte pins of ``anchored run`` for every scheme/schedule pair.

Each of the 15 pairs runs 60 steps on a small instance at seed 7 with
the default ``[trace]`` switches, so the potential and bound columns are
filled where the pair has them. The pins are the sha256 of
``trace.csv`` and of ``report.txt`` without its ``runtime_s`` and
``trace:`` lines. The BLAS caveats of ``test_desk_outputs`` apply.
"""

import hashlib

import pytest

from anchored import instances, schemes
from anchored.cli import main

K = 60
LS, HUBER, BILINEAR = (30, 12), (20, 15), (15, 10)

#: (scheme, schedule) -> (sha256 of trace.csv, sha256 of the report). The
#: two eag_constant/eag_varying trace pins differ from the first recording
#: only in their bound_value column, which was empty before the two
#: schedule rows named their bounds. The two comono trace pins differ from
#: theirs only in bound_value too, which doubled (1 + 2 rho L = 1/2) when
#: the comono row's denominator became squared; both comono pairs moved
#: again when L, swept on the smaller Gram, moved by one ulp. The
#: halpern_slow and halpern_omega traces have an empty lyapunov_main
#: column, and their reports say so: the anchored potential decreases
#: only along halpern_fast. The five least-squares trace pins moved when
#: the reference solution y* came from the smaller Gram in place of an
#: SVD: their bound_value (through d0) or lyapunov_main column reads y*,
#: and moved in its last bits (at most 3.5e-15 relative).
PINS = {
    ("halpern", "halpern_fast"): (
        "d855ab42d1366e99786ad723c86736c36d5934086aa0ec1a7ab81beb5070bc2d",
        "2334c00866a2408abb5d7318a34ada32f33b987e7ba8d6f1fa50f7ea40d46516"),
    ("halpern", "halpern_slow"): (
        "fd9152a47e2d6c5744d595c230c8b6962624a0e2e90fb756d63fc3ec9b8c443e",
        "5475671374888dcbbfde57e357ca77c78d9f131c08d2475e94b521b320a8ecbe"),
    ("halpern", "halpern_omega"): (
        "7b35309e7a9547c061174238a369ccb75a3cd1a4949d7d1bbda21e574d280d93",
        "cbf57f72f62db2a0fb0cfd35e2f97fe394998ae9af3bf4068a7b990f9489f771"),
    ("nesterov", "nesterov_slow"): (
        "2f06793c1e2d5001bf7e77d139717505ae604e86854ff5b21981a0625a888d55",
        "53774aaf1855feb32d4b52654c3e8f16918cc4b9781d298527cc194e4ff0c6df"),
    ("nesterov", "nesterov_fast"): (
        "3dcf6d3deb6a7d82a68bece136fea545d3d4f4d60fe5e35112ddbfe923e45b2c",
        "0174b50ab2712782875c4c3395cd21448b8d7990890abf8d9904e4820e5f6ac7"),
    ("nesterov", "nesterov_omega"): (
        "3704babd1b8ff94fde80da2feb6a79f212622e1cd7836f48e6185c97e7d75ba7",
        "a5d4246d71f16ead3aaa0654f37729b9a8cd205024d3f8bf6059de128d70bec5"),
    ("eag", "eag_constant"): (
        "2fc6972282004bb687c38ae7cee5e18c2c5b72b662bafba1dac050f0f2568967",
        "1476a9eeddae5b0a753e36e587dfabd27464fabc034b8522cde07f98d4b64f6d"),
    ("eag", "eag_varying"): (
        "4a12d442d8a5a29d177da11be1dc714c85c2f1384710077583a6ce978fed85ef",
        "3735c1dcb894d931cc5311ed03faf2cbecf5891ae7675296762dbba246028d20"),
    ("eag", "nag_eag"): (
        "778b5eb29019072ea097078dd75a66d50399c55be8c670d36eb186d2ae361493",
        "e073fbcf2dcaa0ceed5daaaebc0bc480e5b34c1c947d5c9aacc28becc29e58de"),
    ("nag_eag", "nag_eag"): (
        "850e0e0e213b83edabf60b7b31add8d5cfc4d6eaa0a452bbcab1c76ea445948e",
        "a219f257c2ccbe17a55d59c6a6182691d7d202f2a7ea4d77acff2339d254b23a"),
    ("comono_eag", "comono_eag"): (
        "c8dfed429adff935079e59eb5ba433161e395bb6ca0f24e3e4ba85ed0d055421",
        "3021e5372ecb27354a8276e158cd1c30ea0d14b659567e51a3a370ace48acfdc"),
    ("nag_comono", "nag_comono"): (
        "ba71318fe087db552e6ee8bee40dfdf7e6447e759557bb4f6c38be7cb18a3b0e",
        "3aae0245530e893a49b7e7554a70672fd367225c347cc3fe1835df334610ea88"),
    ("peag", "peag"): (
        "ac89d137f8d7e65c02090a7ac0d3879ef6e268b077f04920255ec85e056932bd",
        "b32012d69e68245611088aa0e27cd58348320aa730b99f680cfa910935f16930"),
    ("peag", "peag_legacy"): (
        "e3c68a552d5b5f7f12038ec11da74f66480d0db9ab06636f07c9cdece2cb840e",
        "0d5b999f6c3b479cf69c81d3ef5ed4deca4911e52d752a8f6a8c2ad1145d0a14"),
    ("nag_peag", "nag_peag"): (
        "eb079ea71431906b4407f8b7da9fc3128c76ca671a2fe9d646d9f939e764a106",
        "c970f9c09714d61a9bd053d0846708c9b3373da8e78384cb25e9b69efc2f0747"),
}


def _config(scheme, kind):
    """The config text of one pair's run."""
    if scheme in ("halpern", "nesterov"):
        n, p = LS
        return f"[instance]\ngenerator = least_squares\nn = {n}\np = {p}\n"
    if "comono" in kind:
        name, gen, (m, n) = "bilinear", instances.gen_bilinear, BILINEAR
    else:
        name, gen, (m, n) = "minimax_huber", instances.gen_minimax_huber, HUBER
    text = f"[instance]\ngenerator = {name}\nm = {m}\nn = {n}\n"
    L = gen(m, n, seed=7).operator.lipschitz
    constant = {"comono_eag": ("rho", -1.0 / (4.0 * L)),
                "nag_comono": ("rho", -1.0 / (4.0 * L)),
                "eag_varying": ("eta0", 0.5 / L),
                "peag_legacy": ("eta0", 0.4 / L)}.get(kind)
    if constant:
        text += f"\n[schedule]\n{constant[0]} = {constant[1]:.17g}\n"
    return text


def run_pair(tmp_path, scheme, kind):
    """The two digests of one pair's run."""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[run]\nscheme = {scheme}\nschedule = {kind}\n"
                   f"iters = {K}\nseed = 7\n\n" + _config(scheme, kind))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    report = [line for line in (out / "report.txt").read_text().splitlines()
              if not line.startswith(("runtime_s:", "trace:"))]
    return (hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest(),
            hashlib.sha256("\n".join(report).encode()).hexdigest())


PAIRS = [(s, k) for s, kinds in schemes.COMPATIBLE_SCHEDULES.items()
         for k in kinds]


@pytest.mark.parametrize("scheme,kind", PAIRS,
                         ids=[f"{s}-{k}" for s, k in PAIRS])
def test_run_outputs_are_pinned(tmp_path, scheme, kind):
    assert run_pair(tmp_path, scheme, kind) == PINS[scheme, kind]
