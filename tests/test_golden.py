"""Byte-for-byte golden outputs of the CLI.

Each case pins the SHA-256 of `main([..., "--format", "json"])` output, so
a refactor that changes any reported number, set or order fails here.  The
digests are the same under every PYTHONHASHSEED (checked with 1, 2 and 3);
the output does not depend on the theory file's name."""

import hashlib

import pytest

from modform.cli import main

THEORIES = {
    "T_eq": "",
    "P1": "rel P/1\n",
    "symE": "rel E/2\naxiom E(x,y) |- [x,y] E(y,x)\n",
}

CASES = [
    ("T_eq", ["report", "--index-size", "2"], 2,
     "a890ed1208c9e687591f8db7aaff7a65f771b6c903d61b415c56302f1faeea1b"),
    ("symE", ["topology", "--index-size", "2"], 0,
     "537654699af4993c52d648229d0986d1a1a6c108b7f78129b61be4421752c260"),
    ("symE", ["check", "basis", "--index-size", "2"], 0,
     "384e9b44a662b33d60ae6c36799fcf5779a729b94128e4e9316f58f1fe7e68da"),
    ("symE", ["check", "coherent", "--index-size", "2"], 0,
     "01778be961fa811967132e24a534e119bbe2f84d3ef0ff92049b48e0420a6429"),
    ("symE", ["sheaf", "[x] x = x", "--index-size", "2"], 0,
     "b078d41f5622d8545c485ae0e65476f71974ae427c85e99239cfea46631b0149"),
    ("P1", ["dualize", "--index-size", "2"], 0,
     "1428274ed96dc23a9b7690e98a0a60d897e62326e2679b34b465e10ed837a32e"),
    ("T_eq", ["check", "sem", "--index-size", "3"], 0,
     "08fa1c89a4a47eff64ce98fa0268baa1203cd67e3b0da893f2ffee52ad21fadd"),
    ("symE", ["groupoid", "--index-size", "2", "--depth", "1"], 2,
     "23f21496f9ecc7074f02ec2d0926d5db371799e9782bd1ee8776badafd0980af"),
    ("P1", ["check", "openness", "--index-size", "2", "--depth", "1"], 2,
     "98f0a061e1d3cfc46a6cf77d7102fcf4e48da2340fa99abbf9e424698e440a42"),
    ("P1", ["report", "--index-size", "2"], 2,
     "459ae8aa7a18fb8984a128bfce40e36a5a81e91b0a8f8865eb76388220509bf6"),
    ("symE", ["report", "--index-size", "1"], 0,
     "9c5884980e228a594dd209f0b2de9fc21ff9bed55469f991c3f1c8a57a177452"),
    ("symE", ["dualize", "--index-size", "2"], 2,
     "8fe7d7753622e79351be3f8a35eff1d47630bc42f32134459b6fbdca6d9187bc"),
    ("symE", ["check", "reconstruction", "--index-size", "2"], 0,
     "7a6ac808d71b3d037841aec3f78c53dfa45af04d0e1da6632627e7de1cf0683c"),
    ("P1", ["check", "triangles", "--index-size", "2"], 0,
     "8f60f19b2446f1e9a3eb05c96440a889cbcea566b3b98c7b72a098f41d47a9ba"),
    ("symE", ["site", "--index-size", "2"], 2,
     "095fff6778e1cb6dc147b7e88e8786f818f884c970342afdaa815f2c011884e2"),
    ("symE", ["check", "guns", "--index-size", "2"], 0,
     "dea60e3e3e6e2fd05ed39c5b15af64388fae4dbc577dbc69fdf6c7576d0827bd"),
]


@pytest.mark.parametrize(
    "theory,argv,code,digest", CASES, ids=[" ".join([t] + a) for t, a, _, _ in CASES]
)
def test_json_output_digest(theory, argv, code, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{theory}.thy").write_text(THEORIES[theory])
    assert main(argv + [f"{theory}.thy", "--format", "json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
