"""The README's `tautring` examples, byte for byte.

Each deterministic example in README.md runs through ``cli.main`` twice, as
printed and with ``--json``; the exit code and the SHA-256 of stdout must
equal the pinned values.  A refactor that changes any byte a README reader
would see fails here.  ``cache status`` prints a machine-specific directory
and is left out.
"""

import hashlib

import pytest

from tautring.cli import main

# the README writes p1.json with this call before `pair @p1.json @p1.json`
P1_ARGV = "pixton --g 1 --n 2 --k 0 --A 2,-2 --deg 1 --json".split()

# (argv, exit code, sha256 of text stdout, sha256 of --json stdout)
README_CALLS = [
    ("graphs --g 1 --n 2 --codim 1", 0,
     "93bbe500718d5477c474419656b1133c7d7e38c9b0406aac9083b6d0bfad6c82",
     "3d103b12a8838b55f94eeeb28e9e96432fc196feb43799619bfd6ef3a71c99dc"),
    ("generators --g 1 --n 1 --d 1", 0,
     "35604bcd5fba1d59849c8459dd300cbe683637f0ad683c531d604ac5e2952233",
     "a74e1bb5db4fabce8e279a64b620a64f30945691bdd2c177147d4381ac8d6cdb"),
    ("pixton --g 1 --n 2 --k 0 --A 1,-1 --deg 1", 0,
     "3ff7557564e2dafd961b7466f17550f409b0e4a4498a235740519c3d834c0181",
     "1bb8236a956dfa5b59ae45a88010f5808d2680da5e80846a3dbbbdb56c3365a5"),
    ("hain --g 1 --n 2 --a 2,-2", 0,
     "372595686426ee4789e5a1dc4a5e67835698c128bc3d9e199905db7e66ed6e29",
     "f17ae9824467c03683eb7ecd3a198b0228b6e132da98b4d74b683696c3ebedee"),
    ("pixton --g 1 --n 2 --k 0 --A 2,-2 --deg 1", 0,
     "e4392084cc566985efad18eb336dfc5dbbc25c1638137a35097b0d6c8a074706",
     "3c2ec8ebf5369d15ebf2e15e9b8973063736a26b3d6c9ab0efbadb9454a9fd7e"),
    ("pair @p1.json @p1.json", 0,
     "81322e9c5b4502f0065e08c0a6c22a6f6134f772004b91e276e5875a2424207c",
     "50f39c94c7538c532cbfd6978bb5ac18d9807a11b68497a23df0f9124a4a6e1a"),
    ("check paper-section7", 0,
     "a71448f0209b41685bcc8355e0c3305db56dd4d06dab7a5c107ef11653d92a40",
     "b141a05dd3edf96bfa57718fa968be7ddf310d78ab73befb496f94e24a6b1a6a"),
    ("check multiplicativity --g 1 --n 3 --A 2,4,-6 --B -3,-1,4 "
     "--ka 0 --kb 0 --locus all", 1,
     "21e49d4a8e1f290c629e1f751bd16eb40a79408fbe0d52a3d4578923a9861431",
     "f555692d3a5639a0704d426ffb535dcad5d3f03320281535417c2a3c5f288517"),
    ("check multiplicativity --g 1 --n 3 --A 2,4,-6 --B -3,-1,4 "
     "--ka 0 --kb 0 --locus tl", 0,
     "187a1234b9e80ed9b1e34b1e68c831b842c4edbda71516f68765b9cea79149e6",
     "ac57a1c84b053de7ec5e6f24338766837fd36047aa6eae69390e989603a2c8ad"),
]


@pytest.mark.parametrize("argv, code, text_sha, json_sha", README_CALLS,
                         ids=[c[0] for c in README_CALLS])
def test_readme_example_bytes(argv, code, text_sha, json_sha, capsys,
                              tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(P1_ARGV) == 0
    (tmp_path / "p1.json").write_text(capsys.readouterr().out)
    for extra, sha in (([], text_sha), (["--json"], json_sha)):
        assert main(argv.split() + extra) == code, extra
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == sha, extra
