"""The audited outputs of `tools/outputs.py` are byte-identical to the checked-in digest record,
`tests/output_digests.jsonl`.

A change that moves output bytes on purpose re-records in the same change, with

    python tools/outputs.py --write tests/output_digests.jsonl --digests

The record names the platform it was written on. On another platform the last bits of a
float may move with numpy, its BLAS, the SIMD paths numpy takes or libm, so there the test
skips and says why: it can neither pass nor fail the outputs.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tests" / "output_digests.jsonl"
_spec = importlib.util.spec_from_file_location("qdel_outputs", ROOT / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def test_every_audited_output_matches_its_recorded_digest():
    written_on, recorded = outputs.read_record(RECORD)
    here = outputs.platform_info()
    if written_on != here:
        pytest.skip(f"the record was written on {written_on}, this run is on {here}")
    rerun = {label: (code, outputs._record(label, code, text)["sha256"])
             for label, code, text in outputs.outputs()}
    want = {label: (record["exit"], record["sha256"]) for label, record in recorded.items()}
    differ = sorted(label for label in rerun.keys() | want.keys()
                    if rerun.get(label) != want.get(label))
    assert not differ, (
        f"{len(differ)} of {len(want)} recorded outputs differ, are new or are missing "
        f"(`python tools/outputs.py --compare {RECORD.relative_to(ROOT)}` says how): {differ[:5]}"
    )
