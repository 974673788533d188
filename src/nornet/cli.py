"""Command-line front end: train, eval, budget, gradcheck, sweep.

Run settings come from an INI config file with [model], [train] and [data]
sections; a handful of flags override the file.  Exit codes distinguish
failure classes: 2 for configuration problems, 3 for data problems, 4 for
numeric blowups (a non-finite loss or gradient).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import sys
from pathlib import Path

import numpy as np

from . import presets
from .budget import HeadSpec, ModelConfig, count_params, emit_sizing_table, solve_hidden_size
from .data import (FORMATS, UNK_TOKEN, Corpus, CorpusError, CorpusSplits, Vocabulary,
                   load_classification_corpus, load_conll, load_embeddings, random_embeddings)
from .models import build_model, load_checkpoint, save_checkpoint
from .nor import LAYER_KINDS, LayerSpec, NorLayer, unroll
from .tensor import Tensor, concat, grad_check, reduce_sum
from .training import NumericError, TrainConfig, train, write_metric_log

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


# --- config file handling --------------------------------------------------

# Every config key with its type.  echo_config writes the keys in this order;
# the data file paths are never echoed.
_KEYS = {
    "model": {"task": str, "topology": str, "hidden": int, "classes": int, "budget": int},
    "train": {"seed": int, "lr": float, "batch_size": int, "max_epochs": int,
              "dropout": float, "patience": int, "lr_decay": float, "pad_length": int},
    "data": {"format": str, "embedding_dim": int, "lowercase": bool,
             "train": str, "dev": str, "test": str, "embeddings": str},
}


@dataclasses.dataclass
class RunSettings:
    task: str
    topology: str
    model: ModelConfig
    train: TrainConfig
    fmt: str
    train_path: str | None
    dev_path: str | None
    test_path: str | None
    embeddings_path: str | None
    lowercase: bool | None   # None for conll, whose loader keeps case
    budget: int | None


def _read_ini(path) -> configparser.ConfigParser:
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse_ini(fh.read(), path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _parse_ini(text: str, source) -> configparser.ConfigParser:
    # values are read as written: no % interpolation
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=str(source))
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"{source}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _KEYS[section]:
                raise ConfigError(f"{source}: unknown key {section}.{key}")
    return parser


def _read_values(parser, overrides: dict) -> dict:
    """Every key's value cast to its type, None where the key is absent or
    empty.  A command-line value wins, even a falsy one."""
    values = {}
    for section, keys in _KEYS.items():
        for key, cast in keys.items():
            raw = parser.get(section, key, fallback="")
            if overrides.get(key) is not None:
                values[key] = overrides[key]
            elif raw == "":
                values[key] = None
            else:
                try:
                    values[key] = parser.getboolean(section, key) if cast is bool else cast(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    return values


def resolve_run(config_path, overrides: dict) -> RunSettings:
    """Merge config file, preset defaults and CLI overrides into one plan."""
    return _resolve(_read_ini(config_path), overrides)


def _resolve(parser: configparser.ConfigParser, overrides: dict) -> RunSettings:
    values = _read_values(parser, overrides)
    task = values["task"]
    if task is None:
        raise ConfigError("no task preset: set model.task or pass --task")
    if task not in presets.TASKS:
        raise ConfigError(f"unknown task {task!r}; choose from {sorted(presets.TASKS)}")
    topology = "irnn" if values["topology"] is None else values["topology"]
    if topology not in presets.TOPOLOGY_ALIASES:
        raise ConfigError(f"unknown topology {topology!r}; choose from "
                          f"{sorted(presets.TOPOLOGY_ALIASES)}")

    model = presets.model_config(task, topology)
    hidden, budget = values["hidden"], values["budget"]
    if hidden is None and budget is None:
        budget = presets.default_budgets(task)[0]
    train_over = {key: values[key] for key in _KEYS["train"] if values[key] is not None}
    # the configs reject bad values with a ValueError, and so does the solver (BudgetError)
    try:
        if values["embedding_dim"] is not None:
            model = dataclasses.replace(model, input_dim=values["embedding_dim"])
        if values["classes"] is not None:
            model = dataclasses.replace(model, head=HeadSpec(model.head.kind, values["classes"]))
        model = model.with_hidden(solve_hidden_size(model, budget) if hidden is None else hidden)
        train_cfg = presets.train_config(task, **train_over)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    fmt = presets.TASKS[task]["fmt"] if values["format"] is None else values["format"]
    if fmt not in FORMATS:
        raise ConfigError(f"unknown data.format {fmt!r}; choose from {sorted(FORMATS)}")
    wanted = "tag" if model.head.kind == "crf" else "label"
    if FORMATS[fmt] != wanted:
        raise ConfigError(f"format {fmt} gives {FORMATS[fmt]} targets, but task {task}'s "
                          f"{model.head.kind} head reads {wanted} targets")
    lowercase = values["lowercase"]
    if fmt == "conll" and lowercase is not None:
        raise ConfigError("data.lowercase does not apply to format conll, which keeps case")
    if fmt != "conll" and lowercase is None:
        lowercase = True
    return RunSettings(
        task=task, topology=topology, model=model, train=train_cfg, fmt=fmt,
        train_path=values["train"], dev_path=values["dev"], test_path=values["test"],
        embeddings_path=values["embeddings"], lowercase=lowercase, budget=budget)


def echo_config(run: RunSettings, pad_length: int | None = None) -> str:
    """Serialize the fully resolved settings back to INI text."""
    values = {**dataclasses.asdict(run.train),
              "task": run.task, "topology": run.topology, "hidden": run.model.hidden,
              "classes": run.model.head.classes, "budget": run.budget,
              "format": run.fmt, "embedding_dim": run.model.input_dim,
              "lowercase": run.lowercase}
    if pad_length is not None:
        values["pad_length"] = pad_length
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _KEYS.items():
        parser[section] = {}
        for key in keys:
            value = values.get(key)
            if value is not None:
                parser[section][key] = str(value).lower() if isinstance(value, bool) else str(value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


# --- data assembly ---------------------------------------------------------


def _load_corpus(run: RunSettings, path, vocab=None, names=None) -> Corpus:
    """One data file in the run's format.  Files after the training split
    pass its vocabulary and label/tag table."""
    if run.fmt == "conll":
        return load_conll(path, vocab=vocab, tag_names=names)
    return load_classification_corpus(path, run.fmt, lowercase=run.lowercase,
                                      vocab=vocab, label_names=names)


def _load_task_data(run: RunSettings):
    """Load train/dev/test with a shared vocabulary and label/tag table.

    Without a dev path, a deterministic tenth of the training data is held
    out (every 10th example, offset by the seed).
    """
    if run.train_path is None:
        raise ConfigError("no training data: set data.train or pass --train")
    train_corpus = _load_corpus(run, run.train_path)
    train_ex, vocab, names = train_corpus.examples(), train_corpus.vocab, train_corpus.names
    if run.dev_path:
        dev_ex = _load_corpus(run, run.dev_path, vocab, names).examples()
    else:
        off = run.train.seed % 10
        dev_ex = [ex for i, ex in enumerate(train_ex) if i % 10 == off]
        train_ex = [ex for i, ex in enumerate(train_ex) if i % 10 != off]
        if not dev_ex or not train_ex:
            raise CorpusError("training corpus too small to hold out a dev split")
    test_ex = _load_corpus(run, run.test_path, vocab, names).examples() if run.test_path else None

    if len(names) != run.model.head.classes:
        raise ConfigError(
            f"corpus has {len(names)} labels but the head expects "
            f"{run.model.head.classes}; set model.classes to match")
    return CorpusSplits(train=train_ex, dev=dev_ex, test=test_ex), vocab, names


def _embedding_table(run: RunSettings, vocab):
    if run.embeddings_path:
        return load_embeddings(run.embeddings_path, vocab, run.model.input_dim)
    # no pretrained vectors: fixed random table derived from the run seed
    rng = np.random.default_rng(np.random.SeedSequence([run.train.seed, 0xE]))
    return random_embeddings(vocab, run.model.input_dim, rng)


def _run_training(run: RunSettings, out_dir: Path, quiet=False):
    corpus, vocab, names = _load_task_data(run)
    table = _embedding_table(run, vocab)
    rng = np.random.default_rng(np.random.SeedSequence([run.train.seed, 0x1]))
    model = build_model(run.model, table, names, rng)
    result = train(model, corpus, run.train)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_metric_log(out_dir / "metrics.csv", result.rows)
    cfg_text = echo_config(run, pad_length=result.pad_length)
    (out_dir / "config.resolved.ini").write_text(cfg_text, encoding="utf-8")
    save_checkpoint(out_dir / "model.ckpt", model, cfg_text, vocab.tokens)

    if not quiet:
        n_params = count_params(run.model)
        print(f"task {run.task}  topology {run.topology}  hidden {run.model.hidden}"
              f"  params {n_params}")
        print(f"epochs run {len(result.rows)}  best epoch {result.best_epoch}"
              f"  best dev metric {result.best_metric:.4f}")
    test_metric = None
    if corpus.test:
        test_metric = model.evaluate(corpus.test)
        if not quiet:
            print(f"test metric {test_metric:.4f}  ({_crop_note(corpus.test, result.pad_length)})")
    return model, result, test_metric


def _crop_note(examples, pad_length) -> str:
    longer = sum(len(tokens) > pad_length for tokens, _ in examples)
    return f"{longer} of {len(examples)} examples longer than pad length {pad_length}, scored in full"


# --- subcommands -----------------------------------------------------------


def cmd_train(args) -> int:
    overrides = {k: getattr(args, k, None) for k in
                 ("task", "topology", "hidden", "budget", "seed", "train", "dev", "test")}
    overrides["max_epochs"] = args.epochs
    run = resolve_run(args.config, overrides)
    _run_training(run, Path(args.out))
    print(f"wrote {args.out}/metrics.csv, model.ckpt, config.resolved.ini")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        ckpt = load_checkpoint(args.checkpoint)
    except ValueError as exc:
        raise CorpusError(f"cannot read checkpoint {args.checkpoint}: {exc}") from exc
    parser = _parse_ini(ckpt.config_text, args.checkpoint)
    if parser.get("data", "format", fallback=None) == "conll":
        # checkpoints written before the key became an error for conll hold it
        parser.remove_option("data", "lowercase")
    run = _resolve(parser, {})
    try:
        if UNK_TOKEN not in ckpt.vocab_tokens:
            raise ValueError(f"its vocabulary lacks {UNK_TOKEN}")
        table = ckpt.arrays.get("embedding")
        rows, width = len(ckpt.vocab_tokens), run.model.input_dim
        if table is None or table.shape != (rows, width):
            raise ValueError(f"it holds no {rows} x {width} embedding table")
        model = build_model(run.model, table, ckpt.names, np.random.default_rng(0))
        model.load_state(ckpt.arrays)
    except ValueError as exc:
        raise CorpusError(f"checkpoint {args.checkpoint} is inconsistent: {exc}") from exc

    vocab = Vocabulary(tokens=list(ckpt.vocab_tokens))
    examples = _load_corpus(run, args.data, vocab, ckpt.names).examples()
    metric = model.evaluate(examples)
    kind = "entity_f1" if run.fmt == "conll" else "accuracy"
    note = (f"{len(examples)} examples" if run.train.pad_length is None
            else _crop_note(examples, run.train.pad_length))
    print(f"{kind} {metric:.6f}  ({note})")
    return EXIT_OK


def cmd_budget(args) -> int:
    if args.table:
        print(emit_sizing_table())
        return EXIT_OK
    if not args.task or not args.topology or args.budget is None:
        raise ConfigError("budget needs --task, --topology and --budget (or --table)")
    run = _resolve(_parse_ini("", "budget"),
                   {"task": args.task, "topology": args.topology, "budget": args.budget})
    n_params = count_params(run.model)
    print(f"hidden {run.model.hidden}  params {n_params}  delta {n_params - args.budget:+d}")
    return EXIT_OK


_GRADCHECK_KINDS = "|".join([*presets.TOPOLOGY_ALIASES, "softmax", "crf"])


def _gradcheck_scenario(kind: str, input_dim: int, hidden: int, steps: int,
                        rng: np.random.Generator):
    """A small randomized loss over one layer or head, plus its parameters."""
    from .heads import crf_neg_log_likelihood, new_crf_head, new_softmax_head, \
        softmax_cross_entropy

    if kind == "softmax":
        head = new_softmax_head(input_dim, max(hidden, 2), rng)
        x = Tensor(rng.normal(size=input_dim))
        return (lambda: softmax_cross_entropy(head.logits(x), 0)), head.named()
    if kind == "crf":
        head = new_crf_head(input_dim, max(hidden, 2), rng)
        feats = [Tensor(rng.normal(size=input_dim)) for _ in range(steps)]
        tags = [int(rng.integers(head.tags)) for _ in range(steps)]
        def crf_loss():
            return crf_neg_log_likelihood([head.emission(h) for h in feats], tags, head)
        return crf_loss, head.named()

    layer_kind = presets.TOPOLOGY_ALIASES.get(kind, kind)
    if layer_kind not in LAYER_KINDS:
        raise ConfigError(f"unknown gradcheck kind {kind!r}; choose from "
                          f"{_GRADCHECK_KINDS} or a layer kind")
    spec = LayerSpec(kind=layer_kind)
    layer = NorLayer(spec, input_dim, hidden, rng)
    params = layer.named_parameters("cell" if spec.n is None else "layer")
    # keep the loss surface away from relu kinks: moderate random weights
    for p in params.values():
        p.data[...] = rng.normal(0.0, 0.5, size=p.data.shape)
    xs = [Tensor(rng.normal(size=input_dim)) for _ in range(steps)]

    def layer_loss():
        outs, _ = unroll(layer, xs)
        return reduce_sum(concat(outs))

    return layer_loss, params


def cmd_gradcheck(args) -> int:
    for flag, size in (("input-dim", args.input_dim), ("hidden", args.hidden), ("steps", args.steps)):
        if size < 1:
            raise ConfigError(f"--{flag} must be positive, got {size}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    f, params = _gradcheck_scenario(args.kind, args.input_dim, args.hidden,
                                    args.steps, rng)
    report = grad_check(f, params)
    for line in report.lines():
        print(line)
    print(f"max relative error {report.max_error:.3e} "
          f"({'PASS' if report.passed else 'FAIL'} at {report.tolerance:g})")
    return EXIT_OK if report.passed else 1


def cmd_sweep(args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --seeds {args.seeds!r}: {exc}") from exc
    if not seeds:
        raise ConfigError("no seeds given")
    out_root = Path(args.out)
    metrics = []
    for seed in seeds:
        run = resolve_run(args.config, {"seed": seed})
        _, result, test_metric = _run_training(run, out_root / f"seed{seed}", quiet=True)
        metric = test_metric if test_metric is not None else result.best_metric
        metrics.append(metric)
        print(f"seed {seed}  metric {metric:.6f}")
    mean = float(np.mean(metrics))
    std = float(np.std(metrics))
    print(f"seeds {len(seeds)}  mean {mean:.6f}  std {std:.6f}")
    (out_root / "sweep.csv").parent.mkdir(parents=True, exist_ok=True)
    with open(out_root / "sweep.csv", "w", encoding="utf-8") as fh:
        fh.write("seed,metric\n")
        for seed, metric in zip(seeds, metrics):
            fh.write(f"{seed},{metric:.17g}\n")
        fh.write(f"mean,{mean:.17g}\nstd,{std:.17g}\n")
    return EXIT_OK


# --- argument parsing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nornet",
                                     description="recurrent-network-of-networks toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from an INI config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--task", choices=sorted(presets.TASKS))
    p.add_argument("--topology")
    p.add_argument("--hidden", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int, dest="epochs")
    p.add_argument("--train", dest="train")
    p.add_argument("--dev", dest="dev")
    p.add_argument("--test", dest="test")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a data file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("budget", help="solve hidden sizes for parameter budgets")
    p.add_argument("--task", choices=sorted(presets.TASKS))
    p.add_argument("--topology")
    p.add_argument("--budget", type=int)
    p.add_argument("--table", action="store_true", help="emit the full sizing grid")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("gradcheck", help="verify tape gradients against finite differences")
    p.add_argument("--kind", default="ma", help=_GRADCHECK_KINDS)
    p.add_argument("--input-dim", type=int, default=4, dest="input_dim")
    p.add_argument("--hidden", type=int, default=4)
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep", help="repeat a training run over several seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", required=True, help="comma-separated seed list")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
