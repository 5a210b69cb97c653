"""The CLI's whole output matrix, pinned byte for byte: every subcommand in
every format, the traces, the orderings, the coordinate spellings and the
exits that refuse; and `describe` of every element of a few whole groups."""

import hashlib
import json
from itertools import combinations

import pytest
from bruhat_oracle import all_elements

from schubcells import cartan, cli
from schubcells.cli import main
from schubcells.perms import one_line_str
from schubcells.weyl import weyl_group, word_str

# flag files the recognize commands read, by the name the commands give
FLAGS = {
    "flagA2.json": json.dumps([["1/2", 1, 0], [1, 0, 1], [0, 1, 1]]),
    "flagA3.csv": "0.7,0,0.6,0.3\n0.6,0,0.9,0.2\n0,0.1,0,0.7\n0.2,0.2,0.3,0.1\n",
    "big.csv": "\n".join(",".join("1" if i == j else "0" for j in range(8)) for i in range(8)),
}

# each command with the SHA-256 of json.dumps([exit code, stdout, stderr])
MATRIX = [
    ("describe --group A2 --w 213",
     "38d76cf8f674a7c6650dcaeb11645e7b9985200d582e1191008f09b638137cba"),
    ("describe --group A2 --w 213 --format json",
     "c3dee767be5ee11fdabe6378e19179cabb8915e938aaf76074b5c3508deeda76"),
    ("describe --group A3 --w 2143",
     "3fae05275274262b5c801c4d42bb763f71eb4518ff6187a05a9857d76cd7f400"),
    ("describe --group B3 --w s1.s2.s3",
     "f164a7a94dbc6bb6c9ae91c39bfe0470b0d907f104cd9485bf5fd238083633dd"),
    ("describe --group C3 --w s3.s2 --format json",
     "97518df7e4b3301a03448404a564bec3aa63f7f7e8134172efd373a821e94083"),
    ("describe --group D4 --w s1.s2.s3.s4",
     "aad035b22030c6a1c7cea45a6ca5ce0669fb923dbbf0ce210e5afc24fe640528"),
    ("describe --group D4 --w s2.s4 --format json",
     "2fa3629ebb9a543267dd2c99257fc51efde84f7e66ad86d8ef192189e24a6fb8"),
    ("describe --group G2 --w s1.s2.s1.s2.s1.s2.s1",
     "1da16e784ac61dbd51c4298347f539f4898c32998d1c3eaf3fa00c955601202b"),
    ("describe --group A9 --w s1",
     "a18fed27a28cf919b0f08f30739dffdcf27f559bc774df00f0322afb0fad2813"),
    ("describe --group B2 --w s1.s3",
     "1cc06bf74bf9bdf68a816f3085a88ce807a28e64a474c42d088b46410ff061e2"),
    ("describe-variety --group A3 --w 2143",
     "4044dd0ddc9096dbfff35427a7a25e9299105394ba116030565c04f0f509854a"),
    ("describe-variety --group A3 --w 2143 --format json",
     "619aaf4a60f3adadb09d747670ba9beadcdf05199fb57d7322125bebf48a32de"),
    ("describe-variety --group A2 --w 321",
     "983cef1ddcad65b35508ad46b55092ebd1670dde2f82927571935bdb1821124c"),
    ("describe-variety --group B4 --w s1",
     "24ec698768ea037b5a439f2fdfa6b391f2127b5d5aaee4bd01a7a5f20bcbe41b"),
    ("--seed 7 recognize --group A3 --cell 2314",
     "6f08f0db64162c9858bcd0637d9154510b312fc1b1962081f8fc5f76c7d29539"),
    ("--seed 7 recognize --group A3 --cell 2314 --trace",
     "3a1c949459b91a3c8ba4846be65a1ef9dec361d3743b932b0e65d0b02ac6e56c"),
    ("--seed 7 recognize --group A3 --cell 2314 --format json",
     "2f430168064381ca68f5d0b9580460d423147c932b2b22e5808aeaaa40dc47e7"),
    ("--seed 7 recognize --group A3 --cell 2314 --format json --trace",
     "2f430168064381ca68f5d0b9580460d423147c932b2b22e5808aeaaa40dc47e7"),
    ("recognize --group A2 --flag flagA2.json --trace",
     "b2d7a40e117770dd25b3b744b5b04896e68f5959917fa7daa84964b5f8e42f70"),
    ("recognize --group A3 --flag flagA3.csv",
     "14f2f6e6d401e4cd035ee81a324ba1f0c6ba9dd0addbaf40c9c165b7f39b5fb5"),
    ("recognize --group A3 --flag flagA3.csv --format json",
     "6ecee4a86cd0b81eb379c5590619b9194740a7a3e0690f693961acd69d237418"),
    ("recognize --group B2 --flag flagA2.json",
     "9c875294b7b304d3c2e03a2729a40d7d3283ed9a7c2017f691d74216dfc177b4"),
    ("recognize --group A2",
     "ff8fe642cf69fe2676709274174108893fd840a8bd409fa2bae90ce8738cb198"),
    ("recognize --group A2 --flag big.csv",
     "ebee68f26c2747d7779d0795a0fe4031d44742b1afc556f6b388df52dfa2f31b"),
    ("tree --group A2",
     "05476af9296ac3c085783a0df746c55f1ac22eb453392e0a75f41bcaeb609bea"),
    ("tree --group A2 --format json",
     "c60dc90d875b986499f6598e691b865f33161534bb983db7f4fd636c6ea78d19"),
    ("tree --group A2 --format dot",
     "0143a9230eb2d3e56af296e91c884c73a66a4fc4417289c8da31ee5e0dc47e23"),
    ("tree --group B3 --optimal",
     "95076fad5fb7da1898d4e305dc3419152d06584094c4be4a3c75f6f97ff5f79b"),
    ("tree --group B3 --optimal --format json",
     "d02e6959a383c6041832a55ac2c7b4e2f4c3abae5d245b47c47f081a213bd98c"),
    ("tree --group G2 --format dot",
     "f27aa95814f309e3c560365892e9b0c8177fda05387fa2e27fba20b3995359a4"),
    ("tree --group D4 --optimal",
     "be5c1d8082e578e75f08dc0824a33fc2a0959773fc3187a695e3966b519ec637"),
    ("tree --group B8 --format dot",
     "e0e58f8c5757d5df2815a5c08e3781ba4fae7d3ecf22c23c5528501cb263adbb"),
    ("base --group A3",
     "bdd597aef70512a4b1701e13d4c7750cc62b95ff3aba10299fd69cc10ff8a169"),
    ("base --group A3 --format json",
     "9178e24b06ae9c7c6526b6855590a742077931c4947492a45a92bfa753ebf370"),
    ("base --group B3",
     "233a196fc40073be33dd95eddf6ad936efcebc23bafbea8325384cfff7ed82cf"),
    ("base --group D4 --format json",
     "b7ba8d42cae7ac9011122df90183be9ad59dbc1c3984eb85c461e093ee66c60c"),
    ("base --group G2",
     "edb0ebabe833b6802ad4107ddd765b795ca5dd75180f98b503423bf5c4185ec7"),
    ("patterns-poset --group A2",
     "0b58452d2f01b1562cebeb276f84a0928d6c288f9fcdd17ffa12f0348f4c16b6"),
    ("patterns-poset --group A2 --format json",
     "51c664a0c1d13032b72e20800ccf2d184b2cdbfc9f4ff5717de2827bac6036b6"),
    ("patterns-poset --group A2 --format dot",
     "e718cef451d7c7a7eeae0144eef488f268de3382859da581ff69c125901480b0"),
    ("patterns-poset --group A3 --coords p2,p13,p23",
     "3ea5d796717b0d508b1d5f09c46f16ae67323a5873a1149e11fdc7979ddc9b79"),
    ("patterns-poset --group A3 --coords p{1,3},p2,p{2,3} --format json",
     "a10ba31e4b736df967e2ad604d234dacd7984becf92fdd48472daeb935ead79c"),
    ("patterns-poset --group A2 --coords p2,p2",
     "a4fb731d382fc583a697b490c54441c3d46210d722b5bcd9b845f87b7d06e622"),
    ("patterns-poset --group B2",
     "358231319618b1e97471b940eab50ee6fbe26276f253da1a879b4d1730b9be71"),
    ("patterns-poset --group A4",
     "aaf48af8a289c69c8de34ca285c1d86661d9710036754c5785c3b2609655e92e"),
    ("bounds --witness 2",
     "a726302624e670c9ee63677a1c903f59d4f7efac193ccb7515fdad42d4baabb9"),
    ("bounds --witness 2 --format json",
     "bbf23aac2cbe33679a0c4a52c9ab266f97d257aeab092b9a09cb413f804f1d5d"),
    ("bounds --feedback-free 3",
     "3a720c7ba896ab37377527c3d25fdb8524f2ded26498eb786e8a4d35552c6890"),
    ("bounds --feedback-free 3 --format json",
     "0c207bfe9677bb6e7b01ba3810e5c866a1e0291ffedf03932d08f4e17fdb2676"),
    ("bounds --feedback-free 17",
     "8cca54a8428321ee8721d9edff9eb54faa915924e25f21a561e3edbd345ff1dd"),
    ("bounds --defining 2143 4",
     "5bde1d2cd5b796ac04b112596e1160e2c94c43edfa77b660e9f306434d8b035f"),
    ("bounds --defining 2143 4 --format json",
     "786dcb4ac30824ffdf27e212744535797063302870235f650ad741a8f6001fcf"),
    # the one row that differs from the earlier output: "  certificate: (none)"
    # in place of "  certificate: " with a trailing blank
    ("bounds --defining 321 3",
     "49d48515d5fd2eaf258eab867d3e87b2dd095cf8e51af3016f9110230c982cf5"),
    ("bounds --defining 321 3 --format json",
     "f06815db5a88b9c940546948500490da26ca5c0306a6a5cb6e0c14960ce78a01"),
    ("bounds",
     "80a79e68f74f1e234263069dff13f5b1f0904dd94a8ec4a8e0b73414bc67aac9"),
    ("economical --group B4",
     "27e3ae59d7e171d2dee94d78dd995f2a867af6e2c5b12c073ba7371caedb6a33"),
    ("economical --group B4 --format json",
     "772a044dc6605f8e584b15103cf0ca6bd453b6e3a1d590cb449147b1be9be6f3"),
    ("economical --group B3 --ordering 3,2,1",
     "7585a444f7ed80b318e5c0d448273abc56e3741e045fffc24410b530928e70fb"),
    ("economical --group A3 --ordering 2,1,3 --format json",
     "0f0a8b242c7e47be2ccefe85badb0168b1e2ef8fe56c8355f2cced386a126ed9"),
    ("economical --group G2 --ordering x",
     "903991a9d569321a256060e9c757532dba80610e376ce7c964c5dcea0dc6cbed"),
]


def _outcome(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _argv(command, tmp_path):
    argv = command.split()
    for name, text in FLAGS.items():
        if name in argv:
            (tmp_path / name).write_text(text)
            argv[argv.index(name)] = str(tmp_path / name)
    return argv


@pytest.mark.parametrize("command, sha256", MATRIX, ids=[c for c, _ in MATRIX])
def test_cli_output_matrix(command, sha256, tmp_path, capsys):
    outcome = _outcome(capsys, _argv(command, tmp_path))
    assert hashlib.sha256(json.dumps(list(outcome)).encode()).hexdigest() == sha256, outcome


# per group, the SHA-256 of json.dumps of the outcomes of `describe` on every
# element in ``all_elements`` order, plain then JSON: A4 and D4 take the typed
# descriptions, B3 and G2 the economical one
GROUP_SWEEPS = [
    ("A4", "95f0ff8bd8277c6e68bbe8292e426cbd19750942bdd3eb553c63ff85654afdc1"),
    ("D4", "918cb89f05c15e5be07d929746cef986e96dda23904b5ba26d6d443f9c697bb4"),
    ("B3", "a4139972f2b4a76322056ffaf0af3bf6aab911a96abcd86f4a1f56691ae70c63"),
    ("G2", "1552fa12acfecaa20b5438c07c8cdf8632ba8888f4b193dc159b60dbf4ec2da4"),
]


@pytest.mark.parametrize("spec, sha256", GROUP_SWEEPS, ids=[s for s, _ in GROUP_SWEEPS])
def test_describe_stdout_over_whole_groups(spec, sha256, capsys):
    g = weyl_group(spec)
    outcomes = []
    for w in all_elements(g):
        text = one_line_str(g.one_line(w)) if g.type_letter == "A" else word_str(w.word)
        for fmt in ("plain", "json"):
            outcomes.append(_outcome(capsys, ["describe", "--group", spec, "--w", text,
                                              "--format", fmt]))
    assert all(code == 0 for code, _, _ in outcomes)
    assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() == sha256


# per group, the SHA-256 of json.dumps of the outcomes of `patterns-poset` on
# every pair of coordinates p_I (I by size, then sorted), plain then JSON
POSET_PAIRS = [
    ("A2", "be1be1f131ab05650f05de9b75730f76136dcdc4d3ac4c2bcb2ec79cbc2d0006"),
    ("A3", "baff5dc061a2b4909da011ecc2080d9ab2c585a43282890d8ed0daef0e845d20"),
]


@pytest.mark.parametrize("spec, sha256", POSET_PAIRS, ids=[s for s, _ in POSET_PAIRS])
def test_patterns_poset_over_every_pair_of_coordinates(spec, sha256, capsys):
    n = weyl_group(spec).rank + 1
    coords = ["p" + "".join(map(str, I))
              for k in range(1, n) for I in combinations(range(1, n + 1), k)]
    outcomes = []
    for pair in combinations(coords, 2):
        for fmt in ("plain", "json"):
            outcomes.append(_outcome(capsys, ["patterns-poset", "--group", spec,
                                              "--coords", ",".join(pair), "--format", fmt]))
    assert all(code == 0 for code, _, _ in outcomes)
    assert hashlib.sha256(json.dumps(outcomes).encode()).hexdigest() == sha256


@pytest.mark.parametrize("w", ["321", "4321"])
def test_an_empty_certificate_prints_none(w, capsys):
    # the longest element defines the whole flag variety: no equation is needed
    n = len(w)
    assert _outcome(capsys, ["bounds", "--defining", w, str(n)]) == (0, (
        f"defining the variety of {w} in S_{n}: >= 0 equations (universal set has 0)\n"
        "  certificate: (none)\n"
    ), "")
    code, out, _ = _outcome(capsys, ["bounds", "--defining", w, str(n), "--format", "json"])
    assert (code, json.loads(out)["certificate"]) == (0, [])


def test_one_line_parsing_rests_on_max_rank(capsys):
    assert cartan.MAX_RANK <= 8, (
        "cli._parse_element reads every run of two or more digits as one-line notation, "
        "which is unambiguous only while no permutation has a two-digit entry; lifting "
        "MAX_RANK (ROADMAP items 2 and 5) needs the comma-separated one-line form first"
    )
    code, out, _ = _outcome(capsys, ["describe", "--group", "A8", "--w", "918273645",
                                     "--format", "json"])
    group = weyl_group("A8")
    w = cli._parse_element(group, "918273645")
    assert one_line_str(group.one_line(w)) == "918273645"
    assert code == 0 and json.loads(out)["w"].split()[0] == "918273645"
