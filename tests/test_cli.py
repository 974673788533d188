import configparser
import dataclasses
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from nornet.budget import solve_hidden_size
from nornet.cli import _KEYS, ConfigError, _build_parser, echo_config, main, resolve_run
from nornet.data import Vocabulary, load_conll
from nornet.models import build_model, load_checkpoint
from nornet.presets import TASKS

LABELS = ("AA", "BB")
WORDS = {"AA": ["red", "rose", "ruby"], "BB": ["blue", "lake", "sky"]}


def _write_corpus(path, n=16):
    rng = np.random.default_rng(90)
    lines = []
    for i in range(n):
        lab = LABELS[i % 2]
        toks = [WORDS[lab][int(rng.integers(3))] for _ in range(4)]
        lines.append(f"{lab}:x " + " ".join(toks))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_config(path, train_path, **extra):
    model = {"task": "trec", "topology": "ma", "hidden": "5", "classes": "2"}
    train = {"seed": "1", "max_epochs": "2", "batch_size": "4"}
    data = {"format": "trec_colon", "train": str(train_path), "embedding_dim": "8"}
    for section, over in extra.items():
        {"model": model, "train": train, "data": data}[section].update(over)
    text = "\n".join(
        f"[{name}]\n" + "\n".join(f"{k} = {v}" for k, v in table.items())
        for name, table in (("model", model), ("train", train), ("data", data)))
    path.write_text(text + "\n", encoding="utf-8")


@pytest.fixture
def workspace(tmp_path):
    corpus = tmp_path / "train.txt"
    _write_corpus(corpus)
    config = tmp_path / "run.ini"
    _write_config(config, corpus)
    return tmp_path, config


def test_resolve_run_merges_file_and_flags(workspace):
    tmp, config = workspace
    run = resolve_run(config, {})
    assert run.task == "trec" and run.topology == "ma"
    assert run.model.hidden == 5 and run.model.head.classes == 2
    assert run.train.max_epochs == 2 and run.train.seed == 1
    run = resolve_run(config, {"hidden": 7, "seed": 9})
    assert run.model.hidden == 7 and run.train.seed == 9


def test_resolve_run_keeps_falsy_flags(workspace, capsys):
    tmp, config = workspace
    with pytest.raises(ConfigError, match="hidden"):
        resolve_run(config, {"hidden": 0})
    _write_config(config, tmp / "train.txt", model={"hidden": ""})
    with pytest.raises(ConfigError):
        resolve_run(config, {"budget": 0})
    _write_config(config, tmp / "train.txt")
    assert main(["train", "--config", str(config), "--out", str(tmp / "o"),
                 "--hidden", "0"]) == 2
    assert "hidden" in capsys.readouterr().err


def test_resolve_run_solves_budget_when_hidden_absent(tmp_path):
    corpus = tmp_path / "train.txt"
    _write_corpus(corpus)
    config = tmp_path / "run.ini"
    _write_config(config, corpus, model={"hidden": "", "budget": "100000"})
    run = resolve_run(config, {})
    # the fixture narrows the input to 8 dims and 2 classes, so the solve
    # lands at 127, not the 300-dim preset answer
    template = dataclasses.replace(run.model, hidden=1)
    assert run.model.hidden == solve_hidden_size(template, 100000) == 127
    assert run.budget == 100000


def test_unknown_keys_and_sections_are_config_errors(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\ntask = trec\nshenanigans = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="shenanigans"):
        resolve_run(bad, {})
    bad.write_text("[mystery]\nx = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mystery"):
        resolve_run(bad, {})
    bad.write_text("[model]\ntask = nope\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="nope"):
        resolve_run(bad, {})


@pytest.mark.parametrize("section, key, value", [("model", "classes", "0"),
                                                 ("model", "classes", "1"),
                                                 ("data", "embedding_dim", "0"),
                                                 ("data", "lowercase", "ture"),
                                                 ("data", "format", "bogus"),
                                                 # trec_colon labels sentences, a crf tags tokens
                                                 ("model", "task", "conll"),
                                                 # conll tags tokens, a softmax labels sentences
                                                 ("data", "format", "conll")])
def test_rejected_config_values_are_config_errors(workspace, capsys, section, key, value):
    tmp, config = workspace
    _write_config(config, tmp / "train.txt", **{section: {key: value}})
    with pytest.raises(ConfigError):
        resolve_run(config, {})
    assert main(["train", "--config", str(config), "--out", str(tmp / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_config_values_are_read_as_written(tmp_path):
    corpus = tmp_path / "a%b.txt"
    _write_corpus(corpus)
    config = tmp_path / "run.ini"
    _write_config(config, corpus)
    run = resolve_run(config, {})
    assert run.train_path == str(corpus)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 0


def test_lowercase_with_conll_format_is_a_config_error(tmp_path, capsys):
    # load_conll keeps case, so a lowercase setting there would be ignored
    corpus = tmp_path / "ner.txt"
    corpus.write_text("Rome B-LOC\nis O\n\nROME B-LOC\nis O\n", encoding="utf-8")
    config = tmp_path / "ner.ini"
    for value in ("true", "false"):
        _write_config(config, corpus, model={"task": "conll", "topology": "irnn", "classes": "3"},
                      data={"format": "conll", "lowercase": value})
        with pytest.raises(ConfigError, match="lowercase"):
            resolve_run(config, {})
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "lowercase" in capsys.readouterr().err


def test_echoed_config_omits_lowercase_for_conll(workspace):
    tmp, config = workspace
    assert "lowercase = true" in echo_config(resolve_run(config, {}))
    _write_config(config, tmp / "train.txt", model={"task": "conll", "topology": "irnn", "classes": "3"},
                  data={"format": "conll"})
    run = resolve_run(config, {})
    assert run.lowercase is None and "lowercase" not in echo_config(run)


@pytest.mark.parametrize("task", sorted(TASKS))
def test_echoed_config_is_a_fixed_point(tmp_path, task):
    data = {"format": TASKS[task]["fmt"], "embedding_dim": "8"}
    if task != "conll":
        data["lowercase"] = "false"
    config = tmp_path / "run.ini"
    _write_config(config, tmp_path / "train.txt",
                  model={"task": task, "topology": "ss", "hidden": "", "budget": "20000"},
                  train={"pad_length": "7"}, data=data)
    text = echo_config(resolve_run(config, {}))
    assert "budget = 20000" in text and "pad_length = 7" in text
    assert ("lowercase = false" in text) == (task != "conll")
    config.write_text(text, encoding="utf-8")
    assert echo_config(resolve_run(config, {})) == text

    parser = configparser.ConfigParser()
    parser.read_string(text)
    assert parser.sections() == list(_KEYS)
    for section in _KEYS:
        keys = list(parser[section])
        assert keys == [key for key in _KEYS[section] if key in keys]


def test_train_writes_outputs(workspace, capsys):
    tmp, config = workspace
    code = main(["train", "--config", str(config), "--out", str(tmp / "out")])
    assert code == 0
    assert (tmp / "out" / "metrics.csv").exists()
    assert (tmp / "out" / "model.ckpt").exists()
    resolved = (tmp / "out" / "config.resolved.ini").read_text()
    assert "hidden = 5" in resolved
    assert "pad_length" in resolved
    out = capsys.readouterr().out
    assert "best dev metric" in out


def test_train_is_bitwise_deterministic(workspace):
    tmp, config = workspace
    for name in ("a", "b"):
        assert main(["train", "--config", str(config), "--out", str(tmp / name)]) == 0
    assert (tmp / "a" / "metrics.csv").read_bytes() == (tmp / "b" / "metrics.csv").read_bytes()
    assert (tmp / "a" / "model.ckpt").read_bytes() == (tmp / "b" / "model.ckpt").read_bytes()


def test_eval_reads_checkpoint(workspace, capsys):
    tmp, config = workspace
    main(["train", "--config", str(config), "--out", str(tmp / "out")])
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(tmp / "out" / "model.ckpt"),
                 "--data", str(tmp / "train.txt")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("accuracy ")
    assert "16 examples" in out


def test_eval_rejects_a_file_that_is_not_a_checkpoint(workspace, capsys):
    tmp, config = workspace
    params = "nornet-checkpoint 1\n[config] 0\n[vocab] 0\n[names] 0\n[params] 1\n"
    for text in ("not a checkpoint\n", "nornet-checkpoint 1\n[config] 3\n",
                 "nornet-checkpoint 1\n[config] x\n", params + "w 2 2 3\n1 2 3 4 5\n"):
        (tmp / "bogus.ckpt").write_text(text, encoding="utf-8")
        code = main(["eval", "--checkpoint", str(tmp / "bogus.ckpt"), "--data", str(tmp / "train.txt")])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and f"{tmp / 'bogus.ckpt'}: " in err


@pytest.mark.parametrize("old, new", [
    ("hidden = 5\n", "hidden = 6\n"),               # arrays narrower than the config
    ("[names] 2\nAA\nBB\n", "[names] 3\nAA\nBB\nCC\n"),
    ("\n<unk>\n", "\nunk\n"),
    ("\nembedding 2 ", "\nembeddin 2 "),
    ("embedding_dim = 8\n", "embedding_dim = 7\n"),
])
def test_eval_rejects_a_checkpoint_that_contradicts_itself(workspace, capsys, old, new):
    tmp, config = workspace
    assert main(["train", "--config", str(config), "--out", str(tmp / "out")]) == 0
    text = (tmp / "out" / "model.ckpt").read_text(encoding="utf-8")
    assert old in text
    (tmp / "bad.ckpt").write_text(text.replace(old, new, 1), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tmp / "bad.ckpt"), "--data", str(tmp / "train.txt")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: checkpoint {tmp / 'bad.ckpt'} ")


def test_eval_reads_tagger_checkpoint(tmp_path, capsys):
    corpus = tmp_path / "ner.txt"
    corpus.write_text("\n\n".join(["Rome B-LOC\nis O\nold O", "Ann B-PER\nsings O",
                                     "in O\nRome B-LOC", "Ann B-PER\nis O\nhere O"] * 3)
                      + "\n", encoding="utf-8")
    config = tmp_path / "ner.ini"
    _write_config(config, corpus, model={"task": "conll", "topology": "irnn", "classes": "3"},
                  data={"format": "conll"})
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(tmp_path / "out" / "model.ckpt"),
                 "--data", str(corpus)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("entity_f1 ")
    assert "12 examples" in out

    # checkpoints written while the config echo still held lowercase for
    # conll data evaluate as before
    text = (tmp_path / "out" / "model.ckpt").read_text(encoding="utf-8")
    n = int(text.split("\n")[1].split()[1])
    old = text.replace(f"[config] {n}\n", f"[config] {n + 1}\n", 1).replace(
        "format = conll\n", "format = conll\nlowercase = true\n", 1)
    (tmp_path / "old.ckpt").write_text(old, encoding="utf-8")
    assert main(["eval", "--checkpoint", str(tmp_path / "old.ckpt"), "--data", str(corpus)]) == 0
    assert capsys.readouterr().out == out


def test_eval_scores_entities_past_the_training_pad_length(tmp_path, capsys):
    # training sentences have at most 3 tokens, so the pad length is 3; the
    # scored file puts a gold entity at position 3 of both sentences
    corpus = tmp_path / "ner.txt"
    corpus.write_text("\n\n".join(["Rome B-LOC\nis O\nold O", "Ann B-PER\nsings O",
                                     "in O\nRome B-LOC", "Ann B-PER\nis O\nhere O"] * 3)
                      + "\n", encoding="utf-8")
    late = tmp_path / "late.txt"
    late.write_text("is O\nold O\nin O\nRome B-LOC\n\nAnn B-PER\nis O\nin O\nRome B-LOC\n",
                    encoding="utf-8")
    config = tmp_path / "ner.ini"
    _write_config(config, corpus, model={"task": "conll", "topology": "irnn", "classes": "3"},
                  train={"max_epochs": "8", "lr": "0.05", "dropout": "0"},
                  data={"format": "conll"})
    out_dir = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out_dir),
                 "--test", str(late)]) == 0
    note = "2 of 2 examples longer than pad length 3, scored in full"
    assert note in capsys.readouterr().out
    assert main(["eval", "--checkpoint", str(out_dir / "model.ckpt"), "--data", str(late)]) == 0
    out = capsys.readouterr().out
    assert note in out

    ckpt = load_checkpoint(out_dir / "model.ckpt")
    model = build_model(resolve_run(out_dir / "config.resolved.ini", {}).model,
                        ckpt.arrays["embedding"], ckpt.names, np.random.default_rng(0))
    model.load_state(ckpt.arrays)
    full = load_conll(late, vocab=Vocabulary(tokens=list(ckpt.vocab_tokens)),
                      tag_names=ckpt.names).examples()
    assert out.startswith(f"entity_f1 {model.evaluate(full):.6f}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exit_codes(tmp_path, capsys):
    config = tmp_path / "c.ini"
    config.write_text("[model]\ntask = trec\nbogus = 1\n", encoding="utf-8")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    _write_config(config, tmp_path / "missing.txt")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 3

    # an embeddings file carrying inf stops training, and no numpy warning
    # escapes: through a gated cell the nan rides the state to a non-finite
    # loss, which the message places in its training sentence; through a
    # relu cell the loss stays finite but 0 * inf reaches the input weights'
    # gradient, which the message names
    corpus = tmp_path / "train.txt"
    _write_corpus(corpus)
    vec = tmp_path / "vec.txt"
    vec.write_text("red " + " ".join(["inf"] * 8) + "\n", encoding="utf-8")
    capsys.readouterr()
    errs = {}
    for topology, says in [("gru", "non-finite loss at epoch 1 on training sentence "),
                           ("ma", "non-finite gradient for layer0.sub0.tier0.w_h"),
                           ("irnn", "non-finite gradient for layer0.w_h")]:
        _write_config(config, corpus, model={"topology": topology},
                      data={"embeddings": str(vec)})
        assert main(["train", "--config", str(config), "--out", str(tmp_path / topology)]) == 4
        errs[topology] = capsys.readouterr().err
        assert says in errs[topology]
    # seed 1 holds out lines 1, 11, ... as the dev split
    train_lines = [line for i, line in enumerate(corpus.read_text().splitlines()) if i % 10 != 1]
    index, count = re.search(r"sentence (\d+) \((\d+) tokens\)", errs["gru"]).groups()
    tokens = train_lines[int(index)].split()[1:]
    assert "red" in tokens and len(tokens) == int(count)


def test_budget_subcommand(capsys):
    assert main(["budget", "--task", "trec", "--topology", "ma",
                 "--budget", "100000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("hidden 74  params 100202")

    assert main(["budget", "--table"]) == 0
    table = capsys.readouterr().out
    assert "318(!320)" in table

    assert main(["budget", "--task", "trec", "--topology", "wat",
                 "--budget", "1000"]) == 2
    assert "wat" in capsys.readouterr().err

    assert main(["budget", "--task", "trec", "--topology", "ma", "--budget", "10"]) == 2
    assert "below minimum" in capsys.readouterr().err


def test_gradcheck_subcommand(capsys):
    assert main(["gradcheck", "--kind", "ss", "--input-dim", "3",
                 "--hidden", "3", "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    # an unknown kind is a config error, not the "gradients wrong" status
    assert main(["gradcheck", "--kind", "bogus"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_readme_commands_parse():
    # parsed only, never run: every flag a README example shows must exist
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = [line.split("$ ", 1)[1] for line in readme.splitlines()
                if line.startswith("$ nornet ")]
    assert len(commands) >= 5
    parser = _build_parser()
    for command in commands:
        argv = shlex.split(command, comments=True)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


@pytest.mark.parametrize("kind, flag", [("ma", "--steps"), ("ma", "--hidden"), ("irnn", "--hidden"),
                                        ("ma", "--input-dim"), ("crf", "--steps")])
def test_gradcheck_zero_size_is_a_config_error(kind, flag, capsys):
    assert main(["gradcheck", "--kind", kind, flag, "0"]) == 2
    assert f"{flag} must be positive" in capsys.readouterr().err


def test_sweep_repeated_seed_has_zero_spread(workspace, capsys):
    tmp, config = workspace
    code = main(["sweep", "--config", str(config), "--seeds", "3,3",
                 "--out", str(tmp / "sw")])
    assert code == 0
    out = capsys.readouterr().out
    assert "std 0.000000" in out
    lines = (tmp / "sw" / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "seed,metric"
    assert lines[-1].startswith("std,0")
    assert (tmp / "sw" / "seed3" / "metrics.csv").exists()


def test_sweep_single_seed(workspace, capsys):
    tmp, config = workspace
    assert main(["sweep", "--config", str(config), "--seeds", "2",
                 "--out", str(tmp / "sw1")]) == 0
    out = capsys.readouterr().out
    assert "seeds 1" in out and "std 0.000000" in out


def test_sweep_rejects_non_integer_seeds(workspace, capsys):
    tmp, config = workspace
    assert main(["sweep", "--config", str(config), "--seeds", "a,b",
                 "--out", str(tmp / "sw")]) == 2
    assert "--seeds" in capsys.readouterr().err
