"""Byte-identity guard for the ``anchored verify --scale small`` table.

The table of ``run_suites("all", "small")`` at the desk seed must keep
this sha256 digest (the CLI prints it followed by an ``elapsed:`` line,
which is not part of it). Changes to how the checks run, such as
sharing runs between rows, are meant to leave every byte as it is; a
change that moves one has to say why and record the new digest here.
The digest holds for IEEE double arithmetic with the BLAS the package
was measured on (OpenBLAS through numpy 2.4 on x86-64), run with 2, 3
or 4 OpenBLAS threads; under ``OPENBLAS_NUM_THREADS=1`` the table gets
other bytes.
"""

import hashlib

from anchored.verify import format_table, run_suites

DIGEST = "195dc2f0a8bf17c6d071533c0adb90be5b928d90c7b03632f94494976bbda2d9"


def test_small_verify_table_is_byte_identical():
    table = format_table(run_suites("all", "small"))
    assert hashlib.sha256(table.encode()).hexdigest() == DIGEST
