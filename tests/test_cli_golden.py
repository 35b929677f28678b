"""Byte parity of the command line on the bundled specs.

Each row runs one request in process through main() and compares its
exit code and the sha256 of its canonical stdout against a recorded
digest.  Timing (wall_ms) and the library version are stripped first;
everything else a request prints is pinned.  The rows cover every
subcommand, every per-command budget ceiling, the inconclusive exits and
the usage errors.  The specs are addressed relative to their directory,
so report entries name them the same way in every checkout.
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from realcert.certificates import INCONCLUSIVE, exit_code
from realcert.cli import main

SPECS = Path(__file__).resolve().parents[1] / "src" / "realcert" / "specs"
VOLATILE = frozenset({"wall_ms", "library"})

T, J, O = "tower.json", "jump.json", "osc.json"

# (argv, exit code, sha256 of the stripped canonical stdout)
MATRIX = [
    # tower
    (("tower", "build", "--spec", T), 0,
     "be084824ffa45ef034aeecded33cf29f94fb3c1b9cccd3a1b016382118c74679"),
    (("tower", "build", "--spec", T, "--budget", "maxgen=30,depth=50"), 0,
     "6628dad2614c7374714c35f90b2fd0f3651bd15a3b94c1a036f52d1fc817ad3c"),
    (("tower", "show", "--spec", T, "--generation", "2", "--budget", "depth=3"), 0,
     "5c1e5d87a67246580900d8ba81718bb5c6b2dddeebe6d5b604f88baf404764a7"),
    (("tower", "show", "--spec", T, "--generation", "1", "--budget", "depth=21"), 0,
     "8118da715ae59675ee0ec999a51223a7a913a0d911f5456fadc11040df214227"),
    # fn
    (("fn", "eval", "--spec", T, "--at", "3/8"), 0,
     "f3ccbbcafc417fbeda2056a0e8f3fc77f1c2465690d41cd61d72e46c61e9f287"),
    (("fn", "eval", "--spec", T, "--at", "1/3"), 2,
     "bf949d2b944a2195afacae8fa31baf7be65b4339dcc07381a3c7c41c532c2ca8"),
    (("fn", "eval", "--spec", J, "--at", "1/3", "--precision", "96"), 0,
     "15592821c33b99b296addb4e1eae08bfafb668ae5c393c7042798b96d8243d77"),
    (("fn", "eval", "--spec", O, "--at", "3/10"), 0,
     "5c64677a07d6688958a31e5eb43cc9cba9df915a774948b36abd08195bdcd08e"),
    (("fn", "integrate", "--spec", O, "--from", "0", "--to", "1"), 0,
     "30a64c647def45e1de6e41dbff2565890e7eef8e13e28a5029d282ce13211520"),
    (("fn", "integrate", "--spec", O, "--from", "1/3", "--to", "2/3"), 0,
     "2ef99d614a0836c28ddf63b4b0f0a678d697256de6d506bdc468474d3b17ce89"),
    # norm
    (("norm", "l1", "--spec", T), 0,
     "10b4f554cdf5ec0fd4905c7f10f8b856b205cf80d4e68b3d89f9a1298eb21901"),
    (("norm", "l1", "--spec", T, "--budget", "terms=200"), 0,
     "4b8ee7215b9285c169163008d31c4611a722392273fa19fbca97281613f16e3e"),
    (("norm", "bv", "--spec", J), 0,
     "c8e547931081d6ac1ca6fccec01bcd05bd2803fee1598b90f79d7c496abf1ac0"),
    (("norm", "bv", "--spec", J, "--budget", "terms=1024,precision=512"), 0,
     "464d2decdb0cbd30b81acb24f225e03dbd6b26a2b25e7cdd5d8cb2165c552b95"),
    (("norm", "alexiewicz", "--spec", O), 0,
     "fcf29cf0d3d1961d244910f41eb7069e813f1fd0ffae55c9615593e3439f3051"),
    (("norm", "alexiewicz", "--spec", O, "--precision", "200"), 0,
     "b57d4d57a22c4456594b85bde423304e9d16dad24e1646e8899a3beafa45a234"),
    # certify
    (("certify", "unbounded", "--spec", T, "--interval", "3/8", "5/8",
      "--bound", "1000000"), 0,
     "37017e9de49adc47c5b450765cfbc0ae50891626ed5903837366a280e28952df"),
    (("certify", "unbounded", "--spec", T, "--interval", "3/8", "5/8",
      "--bound", "2", "--budget", "maxgen=1"), 2,
     "6c2f03d83edac4308345d82fd5955555961f9eb4b977dc6527de93fd29eedaa9"),
    (("certify", "jump-dense", "--spec", J, "--interval", "2/5", "1/2"), 0,
     "2971c3561c8fc8801970f29cdc58ae423e8b0182bdf0dd1ae5b9e7e8d0d516a5"),
    (("certify", "jump-dense", "--spec", J, "--interval", "1/1000", "1/999",
      "--budget", "maxgen=2"), 2,
     "4663a68e59032a7badaec07a26ebd4bd86abfc8709b7f1149704823b8d37d8e3"),
    (("certify", "non-lebesgue", "--spec", O, "--bound", "4"), 0,
     "f3d13c3c2a386a4287ffa3532378db611bae3685fb33be40328b7dbcd94ee904"),
    (("certify", "non-lebesgue", "--spec", O, "--bound", "40",
      "--budget", "maxgen=1"), 2,
     "14a4674219ffd78f05def506e078901e6f6ef1db03f94f387ea53f92ee5d8426"),
    (("certify", "basis", "--spec", T, "--coeffs", "1,-2,1", "--m2", "3"), 0,
     "1500bfdecda6d89466436b785f6649e75a34f5871c4f03aae9f3aa54cb1088b6"),
    (("certify", "perturbation", "--bound", "1", "--interval", "0", "1",
      "--radius", "3/5"), 0,
     "d51a634d0eaf73d7dd9fa375f8e676aaa9bece914a61285e208344a3b3efbd08"),
    # report
    (("report",), 0,
     "d801aa1fb7ddcc330a5e3173372ea6af4a3d08ec58074478e85aa5603e926658"),
    (("report", T), 0,
     "f81d78c317d1e82b3cddabf26917d632f2546670656547385accdc0ae9bac83b"),
    (("report", J), 0,
     "0f6fb4330acfea9a379b5ea3859fc240cef557a9d5ce85fcb39570799d89db3e"),
    (("report", O), 0,
     "dc2ed29e6e2ed65ea3b99fa1ec42ae5b8ae5c28dd2f0cb1c1a8b2d45b66aab8f"),
    (("report", T, "--budget", "maxgen=1"), 2,
     "862ce1ed5d07f75d08c02fbca5992887784880e83bed85f8b6801518df71745f"),
    # usage errors
    (("frobnicate",), 1,
     "834ec6222eb3650ca13cbfdb8719545627269c3279d2c7164d714841420dc22f"),
    (("norm", "l1"), 1,
     "50fe1cfd3f30a34a231ae882d889a09b740385c097304de3ff4f2b388950c1a8"),
    (("norm", "l1", "--spec", T, "--spec", J), 1,
     "50fe1cfd3f30a34a231ae882d889a09b740385c097304de3ff4f2b388950c1a8"),
    (("norm", "l1", "--spec", "missing.json"), 1,
     "ae2a6a8763612cfad946b09cb40d132229e154fedf4d55a72985b177a1bf65c3"),
    (("norm", "l1", "--spec", O), 1,
     "0b3bac18327301dc61462fd934bcf3623544a3419444ac5aedacb8cb54875027"),
    (("norm", "l1", "--spec", T, "--budget", "frobs=3"), 1,
     "95aac1634f9411c6fa4fe86f031ef170c97659552216313b61f0865d66fb1b21"),
    (("norm", "l1", "--spec", T, "--budget", "depth"), 1,
     "f0370523da81195b393f5bf23a52d773ad9ada91a1e26a89006d17fedc94a253"),
    (("norm", "l1", "--spec", T, "--budget", "depth=deep"), 1,
     "675eed161f8bcd36b969ac999cb690f9c0202b9a40e37b55e3432ba59b921eb2"),
    (("norm", "l1", "--spec", T, "--tolerance", "1/0"), 1,
     "e46c178f7751594a61e67f53facbf0d7bfb9f0e6b1262150e469b40d0b740e7c"),
    (("norm", "l1", "--spec", T, "--csv", "rows.csv"), 1,
     "a36cda9aae3d12100a481a899a89aa6b3032c17af910a2d51a81a34e6065031f"),
    (("fn", "eval", "--spec", T, "--at", "1/2", "--grid", "4"), 1,
     "f1410eb3931d66cefe76f55a67f6fce574ce87a4292b6341b5e9a5e979d85f42"),
    (("tower", "show", "--spec", T, "--generation", "3"), 1,
     "79a03b409b0d0849d04e58076e279114d10e3c5daedb0c74a0faab9a946386d2"),
    (("certify", "basis", "--coeffs", "1,1"), 1,
     "28f28cd9f0460c0bc93530c6b5558275404e88dad9a08790af98fedb81580331"),
    (("certify", "jump-dense", "--spec", T, "--interval", "0", "1"), 1,
     "187387f8910ec2046167cb0ae4c1a720cfa454e854ea4a0957f093db20ad82d5"),
]


# spec shapes the bundled specs do not exercise, written out per test
SHAPES = {
    "shift.json": {"kind": "jump-polynomial", "body": {
        "terms": [{"beta": "2", "shift": 1}, {"beta": "3", "shift": 2}]}},
    "wrapped.json": {"kind": "jump-polynomial", "body": {"shift": {"sqrt2_multiple": 1}}},
    "staircase.json": {"kind": "jump-polynomial", "body": {}},
    "host.json": {"kind": "oscillator-combination",
                  "body": {"lo": "1/4", "hi": "1/2", "kind": "derivative"},
                  "budget": {"tolerance": "1/1000"}},
    "factorial.json": {"kind": "tower-series", "body": {
        "tower": {"preset": "factorial"},
        "rule": {"monomial": {"thetas": [2, 3], "rows": [{"beta": "1", "k": [1, 0]},
                                                         {"beta": "-1/2", "k": [0, 1]}]}}}},
    "explicit.json": {"kind": "tower-series", "body": {
        "tower": {"masses": ["1/4", "1/4", "1/8"]},
        "rule": {"power": {"theta": "3/2", "subseq": "all"}}}},
    # G = 7 S - 6 S^2 jumps by exactly zero at 1/2, so no budget certifies it
    "g76.json": {"kind": "jump-polynomial", "body": {
        "basis": [1], "G": [{"terms": [{"c": "7", "exp": [0]}]},
                            {"terms": [{"c": "-6", "exp": [0]}]}]}},
}

SHAPE_MATRIX = [
    (("norm", "bv", "--spec", "shift.json"), 0,
     "01d45694ff4a8a790eba9cffaf3dee19a8b885c403b3d1503dca4c63c2818375"),
    (("fn", "eval", "--spec", "shift.json", "--at", "1/3"), 0,
     "cd6dfde23be82f496d6f4e71540c87fe8bde943b8de26a0304864a6a46c6f7ce"),
    (("norm", "bv", "--spec", "wrapped.json"), 0,
     "23fa9a195048357376e1cb133441f4fe6cce472048d8f8bf866337e7a5d6378b"),
    (("fn", "eval", "--spec", "wrapped.json", "--at", "1/3"), 0,
     "f819333a75e92931a3e7149fbe38d340c7d49ece3ac6ad0be1de96ebb3ca0727"),
    (("certify", "jump-dense", "--spec", "wrapped.json", "--interval", "2/5", "1/2"), 1,
     "f6ce8bf3544b79bb6d4d26116675209384262bb6907c7934b1234bb44494d23b"),
    (("norm", "bv", "--spec", "staircase.json"), 0,
     "b86fcdecf3638a0b15ec9e94dc5ca56effe2d5c44f21431d1a0d5a254e305ef2"),
    (("fn", "eval", "--spec", "staircase.json", "--at", "1/3"), 0,
     "3f053c6e1a773ce5b9b7b802ed02b1af12d5b49d3182a4231838c724a3dba2fa"),
    (("certify", "jump-dense", "--spec", "staircase.json", "--interval", "2/5", "1/2"), 0,
     "20f3c47c8cae2044f7a75416a04f6784687baf8555c4829b85f67816d836108a"),
    (("report", "staircase.json"), 0,
     "7d3858044fc352a34397de2bae38999130198797790888e81ff4dd4ef10e399a"),
    (("fn", "eval", "--spec", "host.json", "--at", "3/10"), 0,
     "069b9cc1936b403af3db174a5ebd25fe6cee8c78aa829dc1e20fbecc262741d4"),
    (("fn", "integrate", "--spec", "host.json", "--from", "0", "--to", "1"), 0,
     "26f340d84f1e3ee2a01fd9b679a0bf92d1cc82ee65de49c8d2d684d9030d96a3"),
    (("norm", "alexiewicz", "--spec", "host.json"), 0,
     "b3d4a0fd895376b0a99daf09461a88982f4a37a7a8cea95ce4b2d1cc58cfcd6e"),
    (("certify", "non-lebesgue", "--spec", "host.json", "--bound", "4"), 0,
     "3a68e9b219c17adcacc3a88f7d517a8d766f52ee19db5a46b8be2109621688f8"),
    (("report", "host.json"), 0,
     "76e2f2ad3ae523161d25f130a34060c880a8744d6c075808323b460435c18169"),
    (("tower", "build", "--spec", "factorial.json", "--budget", "maxgen=6,depth=12"), 0,
     "368c6ccda1b0ef50ee34c4dcb0fd812e1075becfc8b4146a89242653577549cf"),
    (("norm", "l1", "--spec", "factorial.json"), 0,
     "8f3e90b2778090c946446e8c0244b7860b14bed31f86c7675ba5668f2215af83"),
    (("fn", "eval", "--spec", "factorial.json", "--at", "3/8"), 0,
     "fc650b169f4f6f240ff9801efe031e0b496900e2d23fe789c3e7bed48136ee49"),
    (("certify", "unbounded", "--spec", "factorial.json", "--interval", "3/8", "5/8",
      "--bound", "100"), 0,
     "bda46f46efdfe4b3e63b54ced1e94b9c63f52b804cb895ea0ce137edfaa4864d"),
    (("report", "factorial.json"), 0,
     "16f71063ad096d5eebc89e778ca6cd8380d303c4d6aa3af69af1bc44c5d7fa08"),
    (("tower", "build", "--spec", "explicit.json", "--budget", "maxgen=3"), 0,
     "fdf3ebd1e0dc521b89841f5c03a331b128e9f7c0b672d05e4962607336fa4803"),
    (("tower", "show", "--spec", "explicit.json", "--generation", "2",
      "--budget", "depth=2"), 0,
     "9e399114bf5e33385a83d053e230e1ae9518b8984ba480b40ac47ebd9a985da9"),
    (("norm", "l1", "--spec", "explicit.json"), 0,
     "07542d795394bf7c6ffea93cdd826ed6bba2ca1c03dc10eec607378193899259"),
    (("norm", "l1", "--spec", "explicit.json", "--budget", "terms=2"), 0,
     "7f6db61c501d86eb7b7a3dda825589ae9c310657a8f1ff675eea4553e4ed82cd"),
    (("fn", "eval", "--spec", "explicit.json", "--at", "5/16"), 0,
     "2a2d463e920acc255d1080f60180d0bddaadf0cbc6d5d1d184023b2bac3dce78"),
    (("certify", "unbounded", "--spec", "explicit.json", "--interval", "3/8", "5/8",
      "--bound", "2"), 0,
     "abecd98129f90ff96add666bf0c976a67c9f8c937184d670f9d373741343d90f"),
    (("report", "explicit.json", "--budget", "maxgen=3"), 0,
     "8ce1bd08c7ba4c5b30b03f0376e11188ee961eb6255f20eee024ccb3fa000f2e"),
]


def _strip(data):
    if isinstance(data, dict):
        return {k: _strip(v) for k, v in data.items() if k not in VOLATILE}
    if isinstance(data, list):
        return [_strip(v) for v in data]
    return data


def stripped_digest(stdout: str) -> str:
    text = json.dumps(_strip(json.loads(stdout)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv,code,digest", MATRIX, ids=[" ".join(r[0]) for r in MATRIX])
def test_cli_output_is_pinned(argv, code, digest, capsys, monkeypatch):
    monkeypatch.chdir(SPECS)
    got = main(list(argv))
    out = capsys.readouterr().out
    assert (got, stripped_digest(out)) == (code, digest)


# (argv, sha256 of the --csv file) for each of the four commands that write rows
CSV_MATRIX = [
    (("tower", "build", "--spec", T),
     "081257cec0a8af2c7edf02bb50aeafdccbe23ce5cd2ad16bcca655075ad74013"),
    (("tower", "show", "--spec", T, "--generation", "2", "--budget", "depth=3"),
     "4ec1be23cdad5a9f9b1e03b240c2b2ea25a39d84effd86a12a358efd3bc862b2"),
    (("fn", "eval", "--spec", J, "--at", "1/3", "--grid", "4"),
     "571ed93c552daf507d0ebeca1e68142b97cfd56663a38d663711de8952e0a6fc"),
    (("certify", "non-lebesgue", "--spec", O, "--bound", "4"),
     "d4fa463621592f629118b7e991b2e47bcfa04209857d7ae77b475981d9dcc062"),
]


@pytest.mark.parametrize("argv,digest", CSV_MATRIX, ids=[" ".join(r[0]) for r in CSV_MATRIX])
def test_csv_rows_are_pinned(argv, digest, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(SPECS)
    rows = tmp_path / "rows.csv"
    assert main([*argv, "--csv", str(rows)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(rows.read_bytes()).hexdigest() == digest


@pytest.fixture
def spec_dir(tmp_path, monkeypatch):
    """The bundled specs and SHAPES in one working directory."""
    for path in SPECS.glob("*.json"):
        (tmp_path / path.name).write_text(path.read_text())
    for name, data in SHAPES.items():
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv,code,digest", SHAPE_MATRIX,
                         ids=[" ".join(r[0]) for r in SHAPE_MATRIX])
def test_spec_shape_output_is_pinned(argv, code, digest, capsys, spec_dir):
    got = main(list(argv))
    out = capsys.readouterr().out
    assert (got, stripped_digest(out)) == (code, digest)


@pytest.mark.parametrize("argv,code,digest", MATRIX + SHAPE_MATRIX,
                         ids=[" ".join(r[0]) for r in MATRIX + SHAPE_MATRIX])
def test_recorded_code_is_read_from_the_printed_verdict(argv, code, digest, capsys,
                                                        spec_dir):
    """Each row's code is exit_code of what it prints; a usage error prints only the error."""
    main(list(argv))
    printed = json.loads(capsys.readouterr().out)
    if "error" in printed:
        assert (code, list(printed)) == (1, ["error"])
    else:
        assert exit_code(printed) == code


def test_bundled_entries_read_exit_0(capsys, spec_dir):
    assert main(["report", "--bundled"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert len(entries) == 14
    assert [exit_code(e["payload"]) for e in entries] == [0] * 14


def _verdicts(data):
    """Every "verdict" value anywhere in an output."""
    if isinstance(data, dict):
        yield from ([data["verdict"]] if "verdict" in data else [])
        for value in data.values():
            yield from _verdicts(value)
    elif isinstance(data, list):
        for value in data:
            yield from _verdicts(value)


def _is_inconclusive(data) -> bool:
    return (set(data) == {"verdict", "reason", "budget"} and data["verdict"] == INCONCLUSIVE
            and isinstance(data["budget"], dict) and bool(data["budget"]))


OUTCOME_REQUESTS = ([argv for argv, _, _ in MATRIX + SHAPE_MATRIX]
                    + [("report", "--bundled"), ("report", "g76.json")])


@pytest.mark.parametrize("argv", OUTCOME_REQUESTS, ids=[" ".join(a) for a in OUTCOME_REQUESTS])
def test_every_outcome_has_one_shape(argv, capsys, spec_dir):
    """Exit 2 prints an InconclusiveAtBudget naming a budget, and nothing else does.

    A report carries it as the payload of each inconclusive entry; no
    output anywhere carries a second inconclusive verdict.
    """
    code = main(list(argv))
    out = json.loads(capsys.readouterr().out)
    assert code in (0, 1, 2)
    assert not {"unknown", "inconclusive"} & set(_verdicts(out))
    if "entries" in out:  # a report: one payload per check
        inconclusive = [e["payload"] for e in out["entries"]
                        if e["payload"].get("verdict") == INCONCLUSIVE]
        assert all(_is_inconclusive(p) for p in inconclusive)
        assert code == 1 or bool(inconclusive) == (code == 2)
    elif code == 2:
        assert _is_inconclusive(out)
    else:
        assert INCONCLUSIVE not in _verdicts(out)


# -- malformed values anywhere in a spec -------------------------------------


def _node_paths(data, path=()):
    """The key path of every value in a JSON document, the root included."""
    yield path
    if isinstance(data, (dict, list)):
        for key, child in (data.items() if isinstance(data, dict) else enumerate(data)):
            yield from _node_paths(child, (*path, key))


def _replaced(data, path, value):
    if not path:
        return value
    copy = dict(data) if isinstance(data, dict) else list(data)
    copy[path[0]] = _replaced(data[path[0]], path[1:], value)
    return copy


FUZZ_DOCUMENTS = {name: json.loads((SPECS / name).read_text()) for name in (T, J, O)}
FUZZ_DOCUMENTS.update(SHAPES)
FUZZ_DOCUMENTS["pieces"] = [["0", "1/2", "1/2"], ["1/2", "1", "-1"]]
FUZZ_SITES = [(name, path) for name, data in FUZZ_DOCUMENTS.items()
              for path in _node_paths(data)]
# integers stay small: exponents, basis surds and tower-series integers have
# ceilings, but a large power-rule theta still runs for minutes on the
# factorial tower rather than failing
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70)
    | st.sampled_from(["", "0", "1/2", "-3/2", "1/0", "x", "all", "arith:1:2", "dyadic",
                       "derivative"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["0", "1", "2", "x", "c", "exp", "terms", "shift"]),
                      inner, max_size=3),
    max_leaves=6)


@given(site=st.sampled_from(FUZZ_SITES), value=JSON_VALUES)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_value_anywhere_exits_with_one_json_document(site, value, capsys, tmp_path):
    """A random JSON value in place of any part of a spec ends in 0, 1 or 2, never a raise."""
    name, path = site
    doc = tmp_path / "fuzz.json"
    doc.write_text(json.dumps(_replaced(FUZZ_DOCUMENTS[name], path, value)))
    if name == "pieces":
        argv = ["certify", "perturbation", "--bound", "1", "--radius", "1/2",
                "--interval", "0", "1", "--pieces", str(doc)]
    else:
        argv = ["fn", "eval", "--spec", str(doc), "--at", "3/8"]
    code = main(argv)
    printed = json.loads(capsys.readouterr().out)  # one document, nothing after it
    assert code in (0, 1, 2)
    assert code == 1 if "error" in printed else code == exit_code(printed)
