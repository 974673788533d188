import re

import numpy as np
import pytest

from nornet.data import (PAD_TOKEN, UNK_TOKEN, CorpusError, Vocabulary,
                         accuracy, entity_f1, entity_spans, load_classification_corpus,
                         load_conll, load_embeddings, random_embeddings, to_iob2)


def test_vocabulary_reserves_pad_and_unk():
    v = Vocabulary()
    assert v.tokens[0] == PAD_TOKEN and v.tokens[1] == UNK_TOKEN
    assert v.add("cat") == 2 and v.add("cat") == 2
    assert v.id("cat") == 2 and v.id("dog") == 1  # unknown maps to unk


def test_tsv_corpus_loader(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("pos\tGood fine movie\nneg\tbad Bad plot\n", encoding="utf-8")
    corpus = load_classification_corpus(path, "tsv_label_text")
    assert corpus.names == ["pos", "neg"]
    assert corpus.targets == [0, 1]
    # lowercasing folds Good/good and Bad/bad
    assert corpus.vocab.tokens.count("bad") == 1


def test_colon_format_keeps_coarse_label(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("LOC:city Where is Oslo\nNUM:count How many moons\n", encoding="utf-8")
    corpus = load_classification_corpus(path, "trec_colon")
    assert corpus.names == ["LOC", "NUM"]
    assert [corpus.vocab.tokens[i] for i in corpus.sentences[0]] == ["where", "is", "oslo"]


def test_classification_parse_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("pos\tok line\nno tab here\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="bad.tsv:2"):
        load_classification_corpus(bad, "tsv_label_text")
    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("LOC missing colon\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="bad2.txt:1"):
        load_classification_corpus(bad2, "trec_colon")


def test_fixed_label_table_rejects_new_labels(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("pos\tgood\nmystery\todd\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="mystery"):
        load_classification_corpus(path, "tsv_label_text", label_names=["pos", "neg"])


def test_shared_vocab_maps_unseen_tokens_to_unk(tmp_path):
    train = tmp_path / "train.tsv"
    train.write_text("pos\tgood movie\n", encoding="utf-8")
    corpus = load_classification_corpus(train, "tsv_label_text")
    dev = tmp_path / "dev.tsv"
    dev.write_text("pos\tgood surprise\n", encoding="utf-8")
    dev_corpus = load_classification_corpus(dev, "tsv_label_text",
                                            vocab=corpus.vocab,
                                            label_names=corpus.names)
    assert dev_corpus.sentences[0][1] == 1  # "surprise" was never seen
    assert len(dev_corpus.vocab) == len(corpus.vocab)


def test_to_iob2_opens_entities():
    tags = ["I-PER", "I-PER", "O", "I-LOC", "B-ORG", "I-ORG"]
    want = ["B-PER", "I-PER", "O", "B-LOC", "B-ORG", "I-ORG"]
    assert to_iob2(tags) == want
    assert to_iob2(want) == want  # idempotent
    assert to_iob2(["I-PER", "I-LOC"]) == ["B-PER", "B-LOC"]  # type switch opens
    with pytest.raises(CorpusError):
        to_iob2(["X-PER"])


def test_conll_loader(tmp_path):
    path = tmp_path / "ner.txt"
    path.write_text(
        "-DOCSTART- -X- O O\n\n"
        "EU NNP I-NP I-ORG\nrejects VBZ I-VP O\n\n"
        "Peter NNP I-NP I-PER\nBlackburn NNP I-NP I-PER\n",
        encoding="utf-8")
    corpus = load_conll(path)
    assert len(corpus.sentences) == 2
    assert [corpus.names[t] for t in corpus.targets[0]] == ["B-ORG", "O"]
    assert [corpus.names[t] for t in corpus.targets[1]] == ["B-PER", "I-PER"]
    # tagging keeps token case: capitalization is signal for entities
    assert corpus.vocab.tokens[corpus.sentences[0][0]] == "EU"


def test_conll_ragged_rows_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("tok O\nlonely\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="bad.txt:2"):
        load_conll(path)


def test_conll_fixed_tag_table(tmp_path):
    path = tmp_path / "ner.txt"
    path.write_text("tok B-MISC\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="B-MISC"):
        load_conll(path, tag_names=["O", "B-LOC", "I-LOC"])


@pytest.mark.parametrize("fmt, text, names, where", [
    ("tsv_label_text", "pos\tgood\nneg\tbad\nodd\tweird\n", ["pos", "neg"], ":3: unknown label 'odd'"),
    ("trec_colon", "LOC:city Where\n\nHUM:ind Who\n", ["LOC", "NUM"], ":3: unknown label 'HUM'"),
    ("conll", "a O\nb B-LOC\n\nc B-PER\nd O\n\n", ["O", "B-LOC"], ":6: unknown tag 'B-PER'"),
    ("conll", "a O\n\nb B-PER\n", ["O", "B-LOC"], ":eof: unknown tag 'B-PER'"),
])
def test_fixed_table_errors_name_the_line(tmp_path, fmt, text, names, where):
    # a conll sentence is numbered by the blank line that closes it, or eof
    path = tmp_path / "c.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape(f"{path}{where}")):
        if fmt == "conll":
            load_conll(path, tag_names=names)
        else:
            load_classification_corpus(path, fmt, label_names=names)


def test_embeddings_loader_places_and_freezes(tmp_path):
    vocab = Vocabulary()
    for w in ("cat", "dog"):
        vocab.add(w)
    path = tmp_path / "vec.txt"
    path.write_text("cat 1.0 2.0 3.0\nbird 9.0 9.0 9.0\ndog -1.0 0.5 0.25\n",
                    encoding="utf-8")
    table = load_embeddings(path, vocab, 3)
    assert table.shape == (4, 3)
    np.testing.assert_array_equal(table[vocab.id("cat")], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(table[vocab.id("dog")], [-1.0, 0.5, 0.25])
    np.testing.assert_array_equal(table[0], 0.0)   # padding row
    np.testing.assert_array_equal(table[1], 0.0)   # unknown row
    assert not table.flags.writeable


def test_embeddings_dim_mismatch_names_line(tmp_path):
    vocab = Vocabulary()
    vocab.add("cat")
    path = tmp_path / "vec.txt"
    path.write_text("cat 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=":1"):
        load_embeddings(path, vocab, 3)


def test_embeddings_accept_word2vec_trailing_space(tmp_path):
    # word2vec's text format writes a header line and ends each vector with a space
    vocab = Vocabulary()
    for w in ("cat", "dog"):
        vocab.add(w)
    path = tmp_path / "vec.txt"
    path.write_text("2 3\ncat 0.1 0.2 0.3 \ndog -1.0 0.5 0.25 \r\n", encoding="utf-8")
    table = load_embeddings(path, vocab, 3)
    np.testing.assert_array_equal(table[vocab.id("cat")], [0.1, 0.2, 0.3])
    np.testing.assert_array_equal(table[vocab.id("dog")], [-1.0, 0.5, 0.25])
    path.write_text("cat 0.1 oops 0.3 \n", encoding="utf-8")
    with pytest.raises(CorpusError, match=":1: bad float"):
        load_embeddings(path, vocab, 3)


def test_random_embeddings_are_seeded_and_frozen():
    vocab = Vocabulary(tokens=["<pad>", "<unk>", "a", "b"])
    t1 = random_embeddings(vocab, 5, np.random.default_rng(9))
    t2 = random_embeddings(vocab, 5, np.random.default_rng(9))
    assert t1.tobytes() == t2.tobytes()
    np.testing.assert_array_equal(t1[0], 0.0)
    np.testing.assert_array_equal(t1[1], 0.0)
    assert not t1.flags.writeable
    assert t1[2:].std() > 0


def test_accuracy():
    assert accuracy([1, 2, 3], [1, 9, 3]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        accuracy([1], [1, 2])


def test_entity_spans():
    tags = ["B-PER", "I-PER", "O", "B-LOC", "B-ORG"]
    assert entity_spans(tags) == {("PER", 0, 2), ("LOC", 3, 4), ("ORG", 4, 5)}
    assert entity_spans(["O", "O"]) == set()
    with pytest.raises(CorpusError):
        entity_spans(["O", "I-PER"])  # gold must be proper IOB2


def test_entity_f1_exact_span_matching():
    gold = [["B-PER", "I-PER", "O", "B-LOC"]]
    exact = [["B-PER", "I-PER", "O", "B-LOC"]]
    assert entity_f1(exact, gold) == (1.0, 1.0, 1.0)

    # boundary error: PER span too short, LOC correct
    short = [["B-PER", "O", "O", "B-LOC"]]
    p, r, f = entity_f1(short, gold)
    assert (p, r) == (0.5, 0.5) and f == pytest.approx(0.5)

    # predictions may open chunks with I-; normalization reads them as B-
    dangling = [["I-PER", "I-PER", "O", "I-LOC"]]
    assert entity_f1(dangling, gold) == (1.0, 1.0, 1.0)


def test_entity_f1_degenerate_counts():
    gold = [["B-PER", "O"]]
    none = [["O", "O"]]
    assert entity_f1(none, gold) == (0.0, 0.0, 0.0)
    all_o_gold = [["O", "O"]]
    assert entity_f1([["B-PER", "O"]], all_o_gold) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        entity_f1([["O"]], [["O"], ["O"]])
    with pytest.raises(ValueError):
        entity_f1([["O", "O"]], [["O"]])
