"""Seeded generator of paper-shaped scriptmap corpora.

One seed fixes a small synthetic world, a set of scenarios whose event types
are realized by verbs drawn with Zipf-like frequencies (so frequent verbs are
shared between event types and scenarios), and samples from it:

  esds.tsv           ESD documents, ~11 EDs each over ~20 event types
  stories.tsv        stories, ~24 labeled verb mentions each
  train_stories.tsv  extra stories for training saved trees (optional)
  embeddings.txt     word2vec text table: corpus words plus filler rows

Stories carry pronoun coreference chains (and, rarely, an all-pronoun chain),
auxiliary, adverbial-clause and non-action verbs, script-evoking and
script-related mentions, and nouns missing from the embedding table. Every
mention has 1-3 nominal dependents. The same arguments give byte-identical
files.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

NON_ACTION = ("be", "have", "do", "want", "know", "think", "like", "need", "say",
              "see", "feel")
NAMES = ("anna", "tom", "lena", "omar", "mia", "ravi", "sara", "jon", "kim",
         "lucas", "nora", "ivan", "emma", "yuki", "paul", "zoe")
ADJECTIVES = ("hot", "late", "dark", "full", "cold", "busy", "quiet", "wet")
PREPS = ("in", "into", "at", "on", "with", "from", "to")
SYLLABLES = ("ba", "ko", "ri", "te", "mu", "sa", "lo", "ne", "pi", "du", "ga",
             "fe", "zo", "ki", "ha", "ru", "vi", "po", "le", "ta")
OOV_SHARE = 0.08  # share of nouns left out of the embedding table
ESD_LENGTH = 11  # EDs per ESD, on average
STORY_EVENT_SHARE = 0.6  # share of a scenario's event types each story mentions


def _word(rng: random.Random, used: set[str], syllables: int) -> str:
    while True:
        w = "".join(rng.choice(SYLLABLES) for _ in range(syllables))
        if w not in used and w not in NAMES and w not in NON_ACTION:
            used.add(w)
            return w


def _zipf(n: int, s: float = 1.1) -> list[float]:
    return [1.0 / (r + 1) ** s for r in range(n)]


class World:
    """Vocabulary, scenarios and vectors fixed by one seed."""

    def __init__(self, rng: random.Random, n_scenarios: int, n_types: int, dim: int):
        used: set[str] = set()
        self.verbs = [_word(rng, used, 3) for _ in range(40 * n_scenarios + 60)]
        self.nouns = [_word(rng, used, 4) for _ in range(80 * n_scenarios + 120)]
        self.verb_w = _zipf(len(self.verbs), 0.9)
        self.noun_w = _zipf(len(self.nouns))
        self.scenarios = []
        for s in range(n_scenarios):
            sid = f"scenario_{s:02d}"
            types = []
            taken: set[str] = set()
            for t in range(n_types):
                # one or two verbs of its own; every third type also borrows
                # its predecessor's first verb, so event types share verbs
                verbs = [self._fresh(rng, taken) for _ in range(1 + (t % 2 == 0))]
                if t % 3 == 2:
                    verbs.append(types[-1]["verbs"][0])
                types.append({
                    "name": f"{sid}_ev{t:02d}",
                    "verbs": verbs,
                    "objects": rng.choices(self.nouns, self.noun_w, k=3),
                    "places": rng.choices(self.nouns, self.noun_w, k=2),
                    "prep": rng.choice(PREPS),
                })
            self.scenarios.append({
                "id": sid,
                "types": types,
                "activity": (rng.choice(self.verbs), rng.choice(self.nouns)),
                "distractors": rng.choices(self.verbs, self.verb_w, k=6),
            })
        self.oov = {n for n in self.nouns if rng.random() < OOV_SHARE}
        self.dim = dim
        nrng = np.random.default_rng(rng.getrandbits(32))
        directions: dict[str, list[np.ndarray]] = {}
        for scen in self.scenarios:
            for et in scen["types"]:
                d = nrng.choice([-0.15, 0.0, 0.15], size=dim)
                for w in et["verbs"] + et["objects"] + et["places"]:
                    directions.setdefault(w, []).append(d)
        self.vectors: dict[str, np.ndarray] = {}
        for w in sorted(set(self.verbs) | set(self.nouns) | set(NAMES)):
            if w in self.oov:
                continue
            base = np.mean(directions[w], axis=0) if w in directions else 0.0
            self.vectors[w] = base + nrng.normal(0.0, 0.06, size=dim)

    def _fresh(self, rng: random.Random, taken: set[str]) -> str:
        """A Zipf-drawn verb not yet in `taken` (frequent verbs recur across
        scenarios, not within one)."""
        while True:
            verb = rng.choices(self.verbs, self.verb_w)[0]
            if verb not in taken:
                taken.add(verb)
                return verb

    def noun(self, rng: random.Random) -> str:
        return rng.choices(self.nouns, self.noun_w)[0]


class Sentence:
    def __init__(self):
        self.rows: list[list] = []

    def add(self, surface, lemma, pos, head, rel, coref=None, label=None) -> int:
        self.rows.append([surface, lemma, pos, head, rel, coref, label])
        return len(self.rows)

    def noun(self, lemma, head, rel, det=True, prep=None, coref=None, pos="NN") -> int:
        first = len(self.rows) + 1
        if prep:
            self.add(prep, prep, "IN", 0, "case")
        if det:
            self.add("the", "the", "DT", 0, "det")
        n = self.add(lemma, lemma, pos, head, rel, coref)
        for i in range(first, n):
            self.rows[i - 1][3] = n
        return n

    def text(self) -> str:
        return "\n".join(
            "\t".join([str(i), s, l, p, str(h), r, c or "_", g or "_"])
            for i, (s, l, p, h, r, c, g) in enumerate(self.rows, 1)
        )


def _pick(rng: random.Random, items: list[str]) -> str:
    return rng.choices(items, _zipf(len(items), 1.5))[0]


def _esd(rng: random.Random, scen: dict, j: int, length: int, coverage: list[int]) -> str:
    """One ESD of `length` EDs; event types covered least so far come first."""
    order = sorted(range(len(scen["types"])), key=lambda t: (coverage[t], rng.random()))
    chosen = sorted(order[:length])
    for t in chosen:
        coverage[t] += 1
    for i in range(len(chosen) - 1):
        if rng.random() < 0.1:
            chosen[i], chosen[i + 1] = chosen[i + 1], chosen[i]
    blocks = []
    for t in chosen:
        et = scen["types"][t]
        if j % 10 == 0 and not blocks:
            s = Sentence()
            s.add("is", "be", "AUX", 0, "root")
            adj = rng.choice(ADJECTIVES)
            s.add(adj, adj, "JJ", 1, "xcomp")
            blocks.append(("script_related", s))
        s = Sentence()
        verb = _pick(rng, et["verbs"])
        v = s.add(verb, verb, "VB", 0, "root")
        det = rng.random() < 0.5
        if rng.random() < 0.8:
            s.noun(_pick(rng, et["objects"]), v, "dobj", det=det)
        if rng.random() < 0.35:
            s.noun(_pick(rng, et["places"]), v, "obl", det=det, prep=et["prep"])
        blocks.append((et["name"], s))
    body = "\n\n".join(f"#ed {i} {label}\n{s.text()}" for i, (label, s) in enumerate(blocks, 1))
    return f"#doc {scen['id']}_esd_{j:03d}\n#scenario {scen['id']}\n#kind esd\n{body}"


def _esd_lengths(n: int) -> list[int]:
    """ED counts averaging ESD_LENGTH exactly, so every seed trains on the same
    number of EDs: pairs of ESD_LENGTH -/+ 1, an odd one out at ESD_LENGTH."""
    return [ESD_LENGTH + (1 if i % 2 else -1) if i < n - n % 2 else ESD_LENGTH for i in range(n)]


def _shuffled(rng: random.Random, flags: list) -> list:
    rng.shuffle(flags)
    return flags


def _story(rng: random.Random, world: World, scen: dict, prefix: str, j: int) -> str:
    name = rng.choice(NAMES)
    sentences = []
    chains: list[str] = []  # coreference chains of object nouns, c2 onwards

    def subject(s: Sentence, head: int):
        if rng.random() < 0.75:
            s.add("she", "she", "PRP", head, "nsubj", coref="c1")
        else:
            s.add(name.capitalize(), name, "NNP", head, "nsubj", coref="c1")

    def obj(s: Sentence, head: int, lemma: str, rel: str, prep=None):
        if chains and rng.random() < 0.15:
            s.add("it", "it", "PRP", head, rel, coref=rng.choice(chains))
            return
        chains.append(f"c{len(chains) + 2}")
        s.noun(lemma, head, rel, det=rng.random() < 0.7, prep=prep, coref=chains[-1])

    s = Sentence()
    s.add(name.capitalize(), name, "NNP", 2, "nsubj", coref="c1")
    s.add("wanted", "want", "VBD", 0, "root", label="non_script_event")
    s.add("to", "to", "TO", 4, "mark")
    act, thing = scen["activity"]
    s.add(act, act, "VB", 2, "xcomp", label="script_evoking")
    s.noun(thing, 4, "dobj")
    sentences.append(s)
    if j % 20 == 0:  # a chain with no nominal member
        s = Sentence()
        s.add("they", "they", "PRP", 2, "nsubj", coref="c99")
        s.add("helped", "help", "VBD", 0, "root", label="non_script_event")
        s.add("them", "they", "PRP", 2, "dobj", coref="c99")
        sentences.append(s)
    # fixed counts per story, so every seed yields the same number of mentions
    n = round(STORY_EVENT_SHARE * len(scen["types"]))
    chosen = sorted(rng.sample(range(len(scen["types"])), n))
    styles = _shuffled(rng, ["aux"] * 2 + ["advcl"] + ["plain"] * (n - 3))
    distract = _shuffled(rng, [True] * (n * 5 // 12) + [False] * (n - n * 5 // 12))
    copula = _shuffled(rng, [True] + [False] * (n - 1))
    for t, style, extra, related in zip(chosen, styles, distract, copula):
        et = scen["types"][t]
        verb = _pick(rng, et["verbs"])
        s = Sentence()
        if style == "aux":  # "she was <verb>ing ..." with an auxiliary mention
            subject(s, 3)
            s.add("was", "be", "AUX", 3, "aux", label="non_script_event")
            v = s.add(verb + "ing", verb, "VBG", 0, "root", label=et["name"])
        else:
            subject(s, 2)
            v = s.add(verb + "ed", verb, "VBD", 0, "root", label=et["name"])
        if rng.random() < 0.85:
            typical = rng.random() < 0.7
            obj(s, v, _pick(rng, et["objects"]) if typical else world.noun(rng), "dobj")
        if rng.random() < 0.4:
            obj(s, v, _pick(rng, et["places"]), "obl", prep=et["prep"])
        if style == "advcl":  # "... after she <other>ed the <noun>"
            other = rng.choices(world.verbs, world.verb_w)[0]
            s.add("after", "after", "IN", len(s.rows) + 3, "mark")
            subject(s, len(s.rows) + 2)
            a = s.add(other + "ed", other, "VBD", v, "advcl", label="non_script_event")
            s.noun(world.noun(rng), a, "dobj")
        sentences.append(s)
        if extra:  # distractor: a non-script verb, often lexically shared
            s = Sentence()
            subject(s, 2)
            verb = rng.choice(scen["distractors"] + list(NON_ACTION[1:]))
            v = s.add(verb + "ed", verb, "VBD", 0, "root", label="non_script_event")
            s.noun(world.noun(rng), v, "dobj")
            sentences.append(s)
        if related:
            s = Sentence()
            s.noun(rng.choice(et["objects"]), 3, "nsubj")
            s.add("was", "be", "VBD", 0, "root", label="script_related")
            adj = rng.choice(ADJECTIVES)
            s.add(adj, adj, "JJ", len(s.rows), "xcomp")
            sentences.append(s)
    body = "\n\n".join(s.text() for s in sentences)
    return f"#doc {scen['id']}_{prefix}_{j:03d}\n#scenario {scen['id']}\n#kind story\n{body}"


def _table(world: World, rng: np.random.Generator, filler: int) -> str:
    fmt = " ".join(["%.4f"] * world.dim)
    lines = [f"{len(world.vectors) + filler} {world.dim}"]
    for w, vec in world.vectors.items():
        lines.append(w + " " + fmt % tuple(vec))
    for i in range(filler):
        lines.append(f"filler{i:06d} " + fmt % tuple(rng.normal(0.0, 0.1, world.dim)))
    return "\n".join(lines) + "\n"


def generate(
    out_dir: str | Path,
    seed: int,
    scenarios: int = 10,
    event_types: int = 20,
    esds: int = 100,
    stories: int = 100,
    train_stories: int = 0,
    dim: int = 300,
    filler: int = 5000,
    story_scenarios: int | None = None,
) -> dict:
    """Write the corpus files for one seed; returns their paths by role.

    ESDs cover every scenario; stories cover the first `story_scenarios`
    (all by default), so tf-idf statistics can span more scenarios than the
    stories evaluated.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    world = World(rng, scenarios, event_types, dim)
    esd_docs = []
    for sc in world.scenarios:
        coverage = [0] * event_types
        for j, length in enumerate(_esd_lengths(esds), 1):
            esd_docs.append(_esd(rng, sc, j, min(length, event_types), coverage))
    told = world.scenarios[:story_scenarios]
    story_docs = [_story(rng, world, sc, "story", j) for sc in told for j in range(1, stories + 1)]
    train_docs = [
        _story(rng, world, sc, "train", j) for sc in told for j in range(1, train_stories + 1)
    ]
    paths = {
        "esds": out / "esds.tsv",
        "stories": out / "stories.tsv",
        "embeddings": out / "embeddings.txt",
    }
    paths["esds"].write_text("\n\n".join(esd_docs) + "\n", encoding="utf-8")
    paths["stories"].write_text("\n\n".join(story_docs) + "\n", encoding="utf-8")
    if train_docs:
        paths["train_stories"] = out / "train_stories.tsv"
        paths["train_stories"].write_text("\n\n".join(train_docs) + "\n", encoding="utf-8")
    table = _table(world, np.random.default_rng(seed), filler)
    paths["embeddings"].write_text(table, encoding="utf-8")
    return paths

