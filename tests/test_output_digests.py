"""The CLI's outputs, pinned by sha256 digest.

Reports, models and rankings must stay byte-identical when the code
behind them is refactored and across Python versions (3.12 changed
``sum()`` over floats), so each case's output is hashed and compared
with a digest recorded once.  ``eval``, ``train`` and ``ablate`` print
temporary paths, so their output file is hashed; ``rank`` and
``classify`` print only results, so their stdout and exit code are.

Every case also runs without pytest, on any interpreter::

    PYTHONPATH=src python tests/test_output_digests.py

which runs them all and exits 1 naming every case that does not match.
"""

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from cognatekit.cli import main
from cognatekit.ranking import RANKING_FUNCTIONS

from synthetic import make_hard_synthetic_pairs

PAIRS = make_hard_synthetic_pairs(40, 40)
DATASETS = {
    "hard": PAIRS,
    # 5 cognate and 3 non-cognate rows appear twice
    "repeated": PAIRS + [p for p in PAIRS if p.label][:5] + [p for p in PAIRS if not p.label][:3],
}

# output-file cases: the dataset read, the arguments, the digest of --out
CASES = {
    "eval": (
        "hard",
        ["eval"],
        "ad471a916a9af7a80a09f3827022e8aff14755c833ae8e2fbbe4d581559175f2",
    ),
    "eval-bm25-one-end": (
        "hard",
        ["eval", "--ranker", "bm25", "--mode", "one-end", "--k", "2,3"],
        "3a6f36a042b9d5ddd082655141e194ae350619656c026066e98581fea84a7b3d",
    ),
    "train": (
        "hard",
        ["train"],
        "2cf3e9e1078bfd4d17dea5d8e02afba6b90e9889902016dead946d358dad5e98",
    ),
    "train-mrr": (
        "hard",
        ["train", "--objective", "mrr"],
        "e2886c008f6b89330778b29893a04fc86910918e25507fe3520a71ef54e10dde",
    ),
    "train-no-tune": (
        "hard",
        ["train", "--no-tune"],
        "327d2c03b1f40ca0b1ccba9a846b8a3969e3cdaeb7612919636bce7c4937cc80",
    ),
    "train-bm25-mrr": (
        "hard",
        ["train", "--ranker", "bm25", "--objective", "mrr"],
        "8304af12d244c6d23d4cc221ca58105b7010e7f26b841c9d6007c4aff2e9a54a",
    ),
    "train-xdice-one-end-mrr": (
        "hard",
        ["train", "--ranker", "xdice", "--mode", "one-end", "--objective", "mrr"],
        "6b66896f3bfec8b49ed8da011328fc1f1f221f29181fce556965dc94c1af621d",
    ),
    "ablate": (
        "hard",
        ["ablate"],
        "5dfa0ae91fea84a7f694bf0ebfba55eb6e0c22fc494e9a6e498edbf9d08d84f1",
    ),
    "train-plain-k23": (
        "hard",
        ["train", "--mode", "plain", "--k", "2,3"],
        "a6e07382d4d95d32964eca560d9d04a1023338e1f04ac2fa29e082eb23464cc8",
    ),
    "train-repeated": (
        "repeated",
        ["train"],
        "6d439ad0dad8de0a7fc71312113a513fe7dcf9be657bd5c4ebe31179acc6a9cf",
    ),
    "eval-repeated": (
        "repeated",
        ["eval"],
        "7bb609457ea57de6097770f27eb5294da01ae4bd29333da60fa6800c7626eb72",
    ),
    "train-bm25": (
        "hard",
        ["train", "--ranker", "bm25"],
        "943176eff10fc760e87068b85867c02648cb17632146038eaf3f414bfe32f0c2",
    ),
    "train-tfidf": (
        "hard",
        ["train", "--ranker", "tfidf"],
        "4180d0ce2571b08702c27a933d1067c7d0a5a43a71dafe9324e57ad6bded347d",
    ),
    "eval-method-edit_distance": (
        "hard",
        ["eval", "--method", "edit_distance"],
        "42ee9ed1f0d0c3a031fcc843437fe8112a262d997b3c53fa0a349db8999031ed",
    ),
    "eval-method-normalized_edit_similarity": (
        "hard",
        ["eval", "--method", "normalized_edit_similarity"],
        "c20e788995203a6f96732b1751fa264381318557fdeb655bf7577736659d6da3",
    ),
    "eval-method-lcsr": (
        "hard",
        ["eval", "--method", "lcsr"],
        "75aa6e5cdc2904418ba7faea1975f329e64f38ae8913e61475408bd7099f7504",
    ),
    "eval-method-xdice": (
        "hard",
        ["eval", "--method", "xdice"],
        "2273e30fc2b180ba7709e565b52e394076e762831baeff1824f0d78c03c4daeb",
    ),
    "train-mrr-plain-k23": (
        "hard",
        ["train", "--objective", "mrr", "--mode", "plain", "--k", "2,3"],
        "bc6a04038ef2222414dd8be8c9d5166c595e504c4df7e3725b1ce5b8742e07cd",
    ),
    "train-mrr-one-end-k23-tfidf": (
        "hard",
        ["train", "--objective", "mrr", "--mode", "one-end", "--k", "2,3", "--ranker", "tfidf"],
        "9bd003486e1096b030a2d69300e9c84d42e75fe36958c9d413f6e8a07d608218",
    ),
    "train-mrr-jaccard": (
        "hard",
        ["train", "--objective", "mrr", "--ranker", "jaccard"],
        "36b8d668c05d55ad0a2b2b596b518d9e3f4bda5c89ad34c4b07fd34a3ef17a52",
    ),
    "eval-folds-3": (
        "hard",
        ["eval", "--folds", "3"],
        "60aea99cacce1c576734b1035fefe63c818f30b3c6716601ae20fd63b8e398f7",
    ),
    "eval-lambda-1": (
        "hard",
        ["eval", "--lambda", "1"],
        "b44af079e51534c3293beeb8771445e5d7227c76da5dab5eb528ba7de3a9f48b",
    ),
    "train-mrr-lambda-1": (
        "hard",
        ["train", "--objective", "mrr", "--lambda", "1"],
        "d45364322425224b1b1e469f0db37d3eb18ec17e1092f5768c73005a25dfad20",
    ),
    # raw sims that tie heavily across word sizes: the walks' order among ties
    "train-mrr-intersection": (
        "hard",
        ["train", "--objective", "mrr", "--ranker", "intersection"],
        "d9ffb61cc10726709e6a76957910d859a326758cce9e020927b4693dfcfb2f6c",
    ),
    "train-mrr-dice-plain": (
        "hard",
        ["train", "--objective", "mrr", "--ranker", "dice", "--mode", "plain"],
        "75feab74babb5fd6dcf6533ce0099bc9f0676026cba306e91f0eb341bef0d3b8",
    ),
}




# rank over the dataset's words plus 20 repeated targets, for its first source
RANK_CASES = {
    "rank-intersection": "d103024b9685ca60a879eba34ebbdd1c7f98af962f357fab2977988c721f22d9",
    "rank-intersection-k1": "00b44ed52ccd09b4a5802cf94ee011493b2002a035085d3a2f390e7cce4bd38d",
    "rank-intersection-k10": "098db32580e5015fbc2f7df16e0af11606585880a92f39ea861296d8b66870cd",
    "rank-jaccard": "76e66db45a8f5ecb2ede80ebca0d3f3783b9d20fba94cad81009b047d25261ef",
    "rank-jaccard-k1": "76609f99f1e8fb6709736c1cee4beac040320a396bbe39c94ee4f2a249d82e60",
    "rank-jaccard-k10": "cb5e475316a2e280c22bc0d0652045bed294f73743aa1036c8ed3e48b05fc3c5",
    "rank-dice": "9c47141307ec3cb019746102fecd116d4bce9ecd6f5a4a937d84092f087af1b7",
    "rank-dice-k1": "76609f99f1e8fb6709736c1cee4beac040320a396bbe39c94ee4f2a249d82e60",
    "rank-dice-k10": "3bda03404a64c721a3dd9ea0e971976528b3d78057b8814fc3e400153c690658",
    "rank-xdice": "27e3ecb25f971a2eed6ac3da10efe7ff8fdba0d8b8b6a8319ab578bce2ecea3e",
    "rank-xdice-k1": "76609f99f1e8fb6709736c1cee4beac040320a396bbe39c94ee4f2a249d82e60",
    "rank-xdice-k10": "a06c413f64b49c7cf18b641e4dfa75ef6f8b805edb2a7b657bcfbd742182c637",
    "rank-tfidf": "5cfe7aac6583b08467616bbc263fb240a41b9bf82694d46e4c41b4c71f4356be",
    "rank-tfidf-k1": "036ffd3dc1b23bcc098e27effcde28b44b4c9de40c388fe33c8e3c9d22ffb205",
    "rank-tfidf-k10": "794d12a1537e0a3e1f9b63f062ee51b632a59035fc377cb1df80d349ce5e9ca5",
    "rank-bm25": "d37e4e97d097d1e04bb84665e6b6043cdcdbeb7169217c77c9fa91a10aee65bd",
    "rank-bm25-k1": "8f8ffe3b121d735b0a47d44da9b22a4b620be3a1f4442c59856a83ecd4b8fc0d",
    "rank-bm25-k10": "b4e3a753b1326a579c71640e3a2fc9a4ec28cad1505ee11ccccfce9bc1d58773",
    "rank-dirichlet": "522b3c81bfef2546254cd845406a29a2ccf668f310d2ecc65767408c2dad3248",
    "rank-dirichlet-k1": "0170f48db72e5fc56b970e868ddd15d9f7e1511017d22bb93e2d4fd1193eec5d",
    "rank-dirichlet-k10": "9d0ac3a6fd3c574febffbab69f37be502b439ff4a936fcf863fa2d03496a4f18",
}

MODELS = {
    "no-tune": ["--no-tune"],
    "accuracy": [],
    "mrr": ["--objective", "mrr"],
    "lambda-0": ["--lambda", "0"],
    "lambda-1": ["--lambda", "1"],
}

# rank --model [--lexicon] [-k 10], and classify of the first cognate and non-cognate
MODEL_CASES = {
    "no-tune-rank": "74f82fec9e227b460a77b765007c778908f5854cef42902a79a87834c4044cce",
    "no-tune-rank-k10": "f77b80b7b8d94f73bd6a171a9eff1eb5cc0221ee980b2eafb108aac6d1e63e38",
    "no-tune-rank-lexicon": "7a0bb27c507563d27e6c5ae9ddb1f7f1fe7566d4e40b5fa789dcad9e0d8323f7",
    "no-tune-rank-lexicon-k10": "e631b9b023c34d015e3d6fdfdc7baa9f7ae418d96ebf5f3fcdfd98c9bbc4c844",
    "no-tune-classify-cognate": "c316bb5bae595b79bb2eac99577e605541a0fd11a63803cb431b6de1a28a1692",
    "no-tune-classify-non-cognate": "1905f5f0a367f7eabede507d359644ade078d03edbca14b2b8f2d744890527a6",
    "accuracy-rank": "4121ded0b8b59ea29f0c045ec324616d7a2d97f4d82db31881b38bf876dd8738",
    "accuracy-rank-k10": "1f49b35182628618b4624e585f7818fe664dc0527beb2477d14dd1c38e4464f4",
    "accuracy-rank-lexicon": "12161777fcaaf90901d53c314fe08d8a4f6e9a013fac6c08575253eb5c1e3091",
    "accuracy-rank-lexicon-k10": "4f66199a4de739157de5ba879d12b1d7a7d8452f7dd2e6b68dc437b254728f92",
    "accuracy-classify-cognate": "b81dcfc24660afef86eb7bc0b619a0787ad41631543c19c50c4f8ceb36c2d51d",
    "accuracy-classify-non-cognate": "1273cf99bd3aa131d6efce3645436c9adff1b7d887e90a2cc48ec69604fb38c0",
    "mrr-rank": "367164ae15edae8aabdaf87181cdab941786540f612c0db2ac2c584fd972948f",
    "mrr-rank-k10": "bfd44cd496fa41d9be2e5a853183ee0dd7909e107b65b2ec0dce0073a085320a",
    "mrr-rank-lexicon": "31779e63b610acfab9071cc86d20e5ca0c9fb3500bb779d3a0b1a09383d1617e",
    "mrr-rank-lexicon-k10": "74d46f5f9eb079294cbc5596336220ee1efe8e13c40b19f64987cba30b514ac9",
    "mrr-classify-cognate": "aced5f5aa87a2c614e52ab3e18c73f7417ab1ba6905b12071f6a1555adb65a9d",
    "mrr-classify-non-cognate": "444551662f53fd768803251b2bef3b210f9867ba1496ff9264fc5cb5190992c5",
    "lambda-0-rank": "ccdc2f9834516902137d1ebea264d6ae7961bdf5b2570221c1b8f9b34987b82a",
    "lambda-0-rank-k10": "dbdbe9982b15688c296920d2a936c142fb2c4ce11dbca897853d02c709b7fd70",
    "lambda-0-rank-lexicon": "1ddefe8a4447c20732386e50774015ed348778fdcc3623d57b9a102d6a67e9fb",
    "lambda-0-rank-lexicon-k10": "81fb22b5c47c4208765b2b5ecfafb8ee80547037f0f360888c8a83c1f136c219",
    "lambda-0-classify-cognate": "58a0c61c6b0f08574f16778cc716aa3256a214c32224d5ba4c57f0d020a41259",
    "lambda-0-classify-non-cognate": "3f099d7318f1d315086a7146d9aaf0d6aa64c7091112f1c7248f5eedde3f039c",
    "lambda-1-rank": "fa4746e87a8cf3d138ba587044c402495dc32ac9337e8eaf9b9a3174c88138a2",
    "lambda-1-rank-k10": "6d009cc73775be34438bc1d6e973ca72922dd46c69f59bf45cc19f9f1bf875eb",
    "lambda-1-rank-lexicon": "9c94025f30a0ca7ac9d2e9aab6a85910c6691cc53da97e309cc11e04d3f08b5d",
    "lambda-1-rank-lexicon-k10": "451b80d31feaac9157ac7ae3e986ac8b74fa640c945b99049ae7a33bfe6d5322",
    "lambda-1-classify-cognate": "2fe102918c4ce63161070d6cba7ada36604e71c7783f2d9cad33caca9a859f76",
    "lambda-1-classify-non-cognate": "fc725b6174a3a700da26b6da0a0608106be5229828f12dfacf9cc085331ab50b",
}

# eval --model over the hard dataset: the report file, the model's path made a placeholder
EVAL_MODEL_CASES = {
    "no-tune-eval": "59757bf8a9916c6ac3b1bcb0fb46b6592b29af3b10fff0d29d48ce56710ad47b",
    "accuracy-eval": "95c9048d63957419f84dc71329c499cd5fdd9f4c941747ed977ccb0db7f993ab",
    "mrr-eval": "29afe7a3de20d439ee5891a1adb1eb4a603ed2e2d893ae54ddd112485956960c",
    "lambda-0-eval": "7014ff64f5044fa83c05ccd98f741d6033eaff735a5c916410b24d155595b70f",
    "lambda-1-eval": "36f9f9ad19d79f83c5435d428d16a1de5eabedb130dc8e5b81f0811ccc17f078",
}

# shingle: stdout and exit code of one word's split set
SHINGLE_CASES = {
    "shingle": (
        ["Rosmarin"],
        "113d40fcf8f32857b24c0bd18d81377804d90ff1d2778c368dbae08d1c4208c8",
    ),
    "shingle-one-end-k23": (
        ["rosmarin", "--mode", "one-end", "--k", "2,3"],
        "e03ddc2c5019b74b16f69a36b0b51421deec0f9dd04d9d7efe3f57f9e522f883",
    ),
    "shingle-plain-k3": (
        ["rosmarin", "--mode", "plain", "--k", "3"],
        "f05aa80a166cb6a2a5c7a03709992b73863322f1879f9bc61738bc37b3dedb45",
    ),
    # a repeated gram keeps its first occurrence, numbered among the distinct grams
    "shingle-repeated-gram": (
        ["banana"],
        "60976b3587f5ba93483172851b18d0aa8b522bdf9c4fa25ec69a9acd0d3ac792",
    ),
    "shingle-repeated-gram-plain": (
        ["banana", "--mode", "plain"],
        "c44646f4012ee9027944653d57d4772cf09c28c03671008436111e846a89b4cf",
    ),
    "shingle-non-ascii": (
        ["Ärger"],
        "551fbffebd54094566948048da191b37f6a92e12ca75e8066e533114a8da56c4",
    ),
    "shingle-digit": (
        ["r2d2"],
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ),
}

QUERY = PAIRS[0].source
COGNATE = next(p for p in PAIRS if p.label)
NON_COGNATE = next(p for p in PAIRS if not p.label)
# train --folds 0: folds are read only when something is tuned
ZERO_FOLDS_CASES = {"no-tune": (["--no-tune"], 0), "tune": ([], 1)}


class Workspace:
    """The datasets, the lexicon and the trained models the cases read, kept under ``root``."""

    def __init__(self, root: Path):
        self.root = root
        self.datasets = {}
        for name, pairs in DATASETS.items():
            path = self.datasets[name] = root / f"{name}.tsv"
            lines = [f"{p.source}\t{p.target}\t{int(p.label)}" for p in pairs]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        words = [p.source for p in PAIRS] + [p.target for p in PAIRS]
        words += [p.target for p in PAIRS[:20]]  # duplicates are distinct documents
        self.lexicon = root / "lexicon.txt"
        self.lexicon.write_text("\n".join(words) + "\n", encoding="utf-8")
        self._models: dict[str, Path] = {}

    def model(self, name: str) -> Path:
        """The model ``train`` writes with ``MODELS[name]``'s flags, trained on first use."""
        if name not in self._models:
            path = self.root / f"{name}.json"
            argv = ["train", "--dataset", str(self.datasets["hard"]), "--out", str(path)]
            code, _ = run(argv + MODELS[name])
            if code != 0:
                raise RuntimeError(f"training the {name} model exited {code}")
            self._models[name] = path
        return self._models[name]


def run(argv) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI run; stderr is dropped."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def stdout_digest(argv) -> str:
    """sha256 of the exit code and stdout of one CLI run."""
    code, out = run(argv)
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def file_digest(ws: Workspace, name: str) -> str:
    """sha256 of the file ``CASES[name]`` writes with ``--out``, or its exit code if not 0."""
    dataset, argv, _ = CASES[name]
    out = ws.root / f"{name}.out"
    code, _ = run(argv + ["--dataset", str(ws.datasets[dataset]), "--out", str(out)])
    if code != 0:
        return f"exit code {code}"
    return hashlib.sha256(out.read_bytes()).hexdigest()


def rank_name(function: str, top) -> str:
    return f"rank-{function}" + ("" if top is None else f"-k{top}")


def rank_model_name(model: str, with_lexicon: bool, top) -> str:
    return f"{model}-rank" + ("-lexicon" if with_lexicon else "") + ("" if top is None else "-k10")


def classify_name(model: str, pair) -> str:
    return f"{model}-classify-" + ("cognate" if pair.label else "non-cognate")


def rank_digest(ws: Workspace, function: str, top) -> str:
    argv = ["rank", QUERY, "--lexicon", str(ws.lexicon), "--ranker", function]
    if top is not None:
        argv += ["-k", str(top)]
    return stdout_digest(argv)


def rank_model_digest(ws: Workspace, model: str, with_lexicon: bool, top) -> str:
    argv = ["rank", QUERY, "--model", str(ws.model(model))]
    if with_lexicon:
        argv += ["--lexicon", str(ws.lexicon)]
    if top is not None:
        argv += ["-k", str(top)]
    return stdout_digest(argv)


def eval_model_digest(ws: Workspace, model: str) -> str:
    path = ws.model(model)
    out = ws.root / f"{model}-eval.json"
    argv = ["eval", "--dataset", str(ws.datasets["hard"]), "--model", str(path), "--out", str(out)]
    code, _ = run(argv)
    if code != 0:
        return f"exit code {code}"
    return hashlib.sha256(out.read_bytes().replace(str(path).encode(), b"MODEL")).hexdigest()


def shingle_digest(name: str) -> str:
    return stdout_digest(["shingle"] + SHINGLE_CASES[name][0])


def classify_digest(ws: Workspace, model: str, pair) -> str:
    return stdout_digest(["classify", pair.source, pair.target, "--model", str(ws.model(model))])


def zero_folds_code(ws: Workspace, name: str) -> int:
    flags, _ = ZERO_FOLDS_CASES[name]
    out = ws.root / "zero-folds.json"
    argv = ["train", "--dataset", str(ws.datasets["hard"]), "--out", str(out), "--folds", "0"]
    return run(argv + flags)[0]


def checks(ws: Workspace):
    """(name, expected, actual) for every case, each run when it is reached."""
    for name, (_, _, digest) in CASES.items():
        yield name, digest, file_digest(ws, name)
    for function in RANKING_FUNCTIONS:
        for top in (None, 1, 10):
            name = rank_name(function, top)
            yield name, RANK_CASES[name], rank_digest(ws, function, top)
    for model in MODELS:
        for with_lexicon in (False, True):
            for top in (None, 10):
                name = rank_model_name(model, with_lexicon, top)
                yield name, MODEL_CASES[name], rank_model_digest(ws, model, with_lexicon, top)
        for pair in (COGNATE, NON_COGNATE):
            name = classify_name(model, pair)
            yield name, MODEL_CASES[name], classify_digest(ws, model, pair)
        name = f"{model}-eval"
        yield name, EVAL_MODEL_CASES[name], eval_model_digest(ws, model)
    for name, (_, digest) in SHINGLE_CASES.items():
        yield name, digest, shingle_digest(name)
    for name, (_, code) in ZERO_FOLDS_CASES.items():
        yield f"train-zero-folds-{name}", code, zero_folds_code(ws, name)


def check_all() -> int:
    """Run every case; 1 with each mismatch on stderr, else 0."""
    with tempfile.TemporaryDirectory() as root:
        count = mismatches = 0
        for name, expected, got in checks(Workspace(Path(root))):
            count += 1
            if got != expected:
                mismatches += 1
                print(f"{name}: expected {expected}, got {got}", file=sys.stderr)
    if mismatches:
        print(f"{mismatches} of {count} cases do not match", file=sys.stderr)
        return 1
    print(f"all {count} cases match")
    return 0


if __name__ == "__main__":
    sys.exit(check_all())

import pytest  # noqa: E402  only the pytest tests below need it


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return Workspace(tmp_path_factory.mktemp("digests"))


@pytest.mark.parametrize("name", list(CASES))
def test_output_file_digest(name, workspace):
    assert file_digest(workspace, name) == CASES[name][2]


@pytest.mark.parametrize("function", RANKING_FUNCTIONS)
@pytest.mark.parametrize("top", [None, 1, 10])
def test_rank_digest(function, top, workspace):
    assert rank_digest(workspace, function, top) == RANK_CASES[rank_name(function, top)]


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("with_lexicon", [False, True])
@pytest.mark.parametrize("top", [None, 10])
def test_rank_model_digest(model, with_lexicon, top, workspace):
    name = rank_model_name(model, with_lexicon, top)
    assert rank_model_digest(workspace, model, with_lexicon, top) == MODEL_CASES[name]


@pytest.mark.parametrize("model", list(MODELS))
@pytest.mark.parametrize("pair", [COGNATE, NON_COGNATE], ids=["cognate", "non-cognate"])
def test_classify_digest(model, pair, workspace):
    assert classify_digest(workspace, model, pair) == MODEL_CASES[classify_name(model, pair)]


@pytest.mark.parametrize("model", list(MODELS))
def test_eval_model_digest(model, workspace):
    assert eval_model_digest(workspace, model) == EVAL_MODEL_CASES[f"{model}-eval"]


@pytest.mark.parametrize("name", list(SHINGLE_CASES))
def test_shingle_digest(name):
    assert shingle_digest(name) == SHINGLE_CASES[name][1]


@pytest.mark.parametrize("name", list(ZERO_FOLDS_CASES))
def test_train_with_zero_folds_exit_code(name, workspace):
    assert zero_folds_code(workspace, name) == ZERO_FOLDS_CASES[name][1]
