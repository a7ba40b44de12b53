"""Hypothesis strategies for graph files, valid and malformed, and for
proper colorings of a graph.

GML documents are token lists joined by random gaps: the empty string
(so brackets and strings touch their neighbors), line breaks, and
whitespace that separates tokens but does not end an atom (form feed,
no-break space, line separator).  Half of the documents start from a
well-formed graph and are then mutated; the rest are token soup.
"""

from __future__ import annotations

from hypothesis import strategies as st

from labelprop.coloring import Coloring

GML_GAPS = ["", " ", " ", "\n", "\t", "\r", "\r\n", "\x0c", "\xa0", " ", " \n  "]
GML_IDS = ["0", "1", "2", "3", "1\x0c", "a\xa0b", "x#y", '"1"', '"a b"', "99999999999999999999"]
GML_WORDS = [
    "graph", "node", "edge", "id", "label", "source", "target", "directed",
    "weight", "value", "Creator", "graphics", "[", "]", '"', '"s"', '"\r"',
    "# note\n", "#", *GML_IDS,
]


GML_LABELS = ['"n"', '"n"', "m", '""', '"n m"']
# Scalars that follow a block's usual ones: a weight, keys that only extend
# the usual ones, and keys the loader skips.
GML_EXTRA_PAIRS = [
    ("value", "1"), ("weight", '"2"'), ("ids", "5"), ("sources", "1"), ("labels", '"z"'),
    ("color", "3"), ("label", '"e"'),
]


def _block(draw, key: str, pairs: list[tuple[str, str]]) -> list[str]:
    """A node or edge block: its usual pairs, now and then more scalars or a
    nested block, a key that only extends the usual one, or a wrapper block."""
    pairs = pairs + draw(st.lists(st.sampled_from(GML_EXTRA_PAIRS), max_size=2))
    tokens = [key + "s" if draw(st.integers(0, 9)) == 0 else key, "["]
    for pair in pairs:
        tokens += pair
    if draw(st.integers(0, 3)) == 0:
        tokens += ["graphics", "[", "x", "1", "id", "7", "]"]
    tokens.append("]")
    if draw(st.integers(0, 9)) == 0:
        tokens = ["x", "[", *tokens, "]"]  # not directly under the graph block
    return tokens


@st.composite
def _well_formed_gml(draw) -> list[str]:
    tokens = ["graph", "["]
    if draw(st.booleans()):
        tokens += ["directed", draw(st.sampled_from(["0", "1", '"1"', '" 1 "', "1\x0c"]))]
    declared = draw(st.lists(st.sampled_from(GML_IDS[:6]), unique=True, max_size=4))
    repeat = declared[:1] if draw(st.integers(0, 9)) == 0 else []
    for node_id in declared + repeat:
        pairs = [("id", node_id)]
        if draw(st.booleans()):
            pairs.insert(draw(st.integers(0, 1)), ("label", draw(st.sampled_from(GML_LABELS))))
        tokens += _block(draw, "node", pairs)
    ends = st.sampled_from(declared * 4 + ["9", '"1"'])  # rarely an undeclared node
    for _ in range(draw(st.integers(0, 5))):
        tokens += _block(draw, "edge", [("source", draw(ends)), ("target", draw(ends))])
    tokens.append("]")
    if draw(st.booleans()):
        tokens = ["Creator", '"fuzz"', *tokens]
    if draw(st.booleans()):  # a second graph block, which is never read
        tokens += ["graph", "[", "node", "[", "]", "node", "[", "id", "1", "]", "]"]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(tokens)))
        if draw(st.booleans()) and i < len(tokens):
            del tokens[i]
        else:
            tokens.insert(i, draw(st.sampled_from(GML_WORDS)))
    return tokens


@st.composite
def gml_documents(draw) -> str:
    """GML text, well-formed or not."""
    if draw(st.booleans()):
        tokens = draw(_well_formed_gml())
    else:
        tokens = draw(st.lists(st.sampled_from(GML_WORDS), max_size=30))
    gaps = st.sampled_from(GML_GAPS)
    out = []
    for token, after in zip(tokens, tokens[1:] + [""]):
        gap = draw(gaps)
        if _is_atom(token) and _is_atom(after) and not set(gap) & set(" \t\r\n"):
            gap = " " + gap  # else the two atoms run together into one
        out.append(token + gap)
    return "".join(out)


def _is_atom(token: str) -> bool:
    return bool(token) and token[0] not in '[]"#'


# Separators of a run of blocks that str.split() and the token scan both
# cut at; a document draws one to three and cycles through them.
RUN_GAPS = [" ", "\n", "\n  ", "\t", "\r\n", "  ", " \n\t"]
# Keys a run's blocks may carry besides their own (id and perhaps label, or
# source and target): weights, which count on edges, and keys the loader skips.
RUN_EXTRA_KEYS = {"node": ["value", "weight", "color", "source"], "edge": ["value", "weight", "color", "label"]}
RUN_MUTATIONS = [
    "lone quote", "inner quote", "glued bracket", "bracket in a value", "nested block", "comment",
    "form feed in an id", "no-break space in an id", "duplicate id", "edge before its node",
    "key past the first block", "renamed key", "scalars between blocks", "mixed stride",
    "non-ASCII label", "non-ASCII id", "quoting flipped",
]


def _run(draw, kind: str, items: list[dict[str, str]]) -> list[list[str]]:
    """Blocks of one shape, one per item: the run draws its keys' order,
    up to three extra keys and whether each key's values are quoted."""
    own = ["id", *(["label"] if draw(st.booleans()) else [])] if kind == "node" else ["source", "target"]
    extra = draw(st.lists(st.sampled_from(RUN_EXTRA_KEYS[kind]), unique=True, max_size=3))
    keys = draw(st.permutations(own + extra))
    quoted = {key: draw(st.booleans()) for key in keys}
    blocks = []
    for item in items:
        block = [kind, "["]
        for key in keys:
            value = item.get(key, "3" if key == "color" else "1")
            block += key, f'"{value}"' if quoted[key] else value
        blocks.append(block + ["]"])
    return blocks


@st.composite
def gml_runs(draw) -> str:
    """A graph block of runs of node and edge blocks, each run of a shape
    of its own, with at most one mutation that the bulk reader must refuse
    or read like the token scan."""
    n = draw(st.integers(1, 40))
    ids = [str(v) for v in draw(st.permutations(range(n)))]
    cut = draw(st.integers(1, n))  # the nodes of the first run
    blocks = []
    # Two node runs, each followed by a run of edges among the nodes so far.
    for first, stop in ((0, cut), (cut, n)):
        blocks += _run(draw, "node", [{"id": v, "label": f"n{v}"} for v in ids[first:stop]])
        ends = st.sampled_from(ids[:stop])
        edges = [{"source": draw(ends), "target": draw(ends), "label": "e"} for _ in range(draw(st.integers(0, 30)))]
        blocks += _run(draw, "edge", edges)
    nodes = [b for b in blocks if b[0] == "node"]
    mutation = draw(st.sampled_from([None, *RUN_MUTATIONS]))
    at = draw(st.integers(0, len(blocks) - 1))
    block = blocks[at]
    node = draw(st.sampled_from(nodes))
    node_id = node.index("id") + 1
    value = draw(st.sampled_from(range(3, len(block) - 1, 2)))  # an id, label, endpoint or other value
    if mutation == "lone quote":
        block.insert(draw(st.integers(1, len(block) - 1)), '"')
    elif mutation == "inner quote":
        block[value] = draw(st.sampled_from(['"a"b"', 'a"b', 'a"b"', '"a"b', '"a', '"', block[value] + '"']))
    elif mutation == "glued bracket":  # 5]
        block[-2:] = [block[-2] + "]"]
    elif mutation == "bracket in a value":
        block[value] = draw(st.sampled_from([block[value] + "]", block[value] + "[", "a[b", '"]"']))
    elif mutation == "nested block":
        block[value : value + 1] = ["[", "x", "1", "]"]
    elif mutation == "comment":
        if draw(st.booleans()):
            block.insert(draw(st.integers(1, len(block))), draw(st.sampled_from(["# c\n", "#\n", "x#y"])))
        else:
            block[value] = "#" + block[value]
    elif mutation in ("form feed in an id", "no-break space in an id"):
        space = "\x0c" if mutation == "form feed in an id" else "\xa0"
        node[node_id] = draw(st.sampled_from([node[node_id] + space + "1", node[node_id] + space, space + node[node_id]]))
    elif mutation == "duplicate id":
        other = draw(st.sampled_from(nodes))
        node[node_id] = other[other.index("id") + 1]
    elif mutation == "edge before its node":
        blocks.append(blocks.pop(blocks.index(node)))
    elif mutation == "key past the first block":  # perhaps one the block has already
        block[-1:-1] = draw(st.sampled_from([["x", "1"], ["label", '"e"'], ["value", "2"], ["id", "0"]]))
    elif mutation == "renamed key":
        block[value - 1] = draw(st.sampled_from(["id", "label", "source", "target", "value", "weight", "x"]))
    elif mutation == "scalars between blocks":
        # as many tokens as a block has, or an even number, which is valid GML
        count = draw(st.sampled_from([len(block), 2, 4]))
        blocks.insert(at, (["x", "1"] * count)[:count])
    elif mutation == "mixed stride":
        if len(block) > 5 and draw(st.booleans()):
            del block[value - 1 : value + 1]
        else:
            block[-1:-1] = ["x", "1"]
    elif mutation == "non-ASCII label":
        label = draw(st.sampled_from(['"é"', '"名前"', '"\U0001f600"', "é"]))
        if "label" in node:
            node[node.index("label") + 1] = label
        else:
            node[-1:-1] = ["label", label]
    elif mutation == "non-ASCII id":
        node[node_id] = draw(st.sampled_from(["é", "名", "a\u2003b"]))
    elif mutation == "quoting flipped":
        block[value] = block[value][1:-1] if block[value][0] == '"' else f'"{block[value]}"'
    gaps = draw(st.lists(st.sampled_from(RUN_GAPS), min_size=1, max_size=3))
    tokens = ["graph", "[", *(token for b in blocks for token in b), "]"]
    return "".join(token + gaps[i % len(gaps)] for i, token in enumerate(tokens))


edge_list_documents = st.text(alphabet="ab01 #\t\n\r\x0c\xa0", max_size=60)

EDGE_LIST_NAMES = ["a", "b", "c", "0", "1", "10", "x#y", "é"]
EDGE_LIST_SEPARATORS = [" ", "  ", "\t", "\x0c", "\xa0", " "]


@st.composite
def edge_list_graphs(draw) -> str:
    """Edge lists that mostly load: each edge repeated in either orientation,
    ``v v`` lines, comment and blank lines in between, and now and then a
    line without exactly two tokens."""
    names = st.sampled_from(EDGE_LIST_NAMES)
    lines = []
    for u, v in draw(st.lists(st.tuples(names, names), max_size=12)):
        for _ in range(draw(st.integers(1, 3))):
            lines.append((u, v) if draw(st.booleans()) else (v, u))
    for _ in range(draw(st.integers(0, 4))):
        v = draw(names)
        lines.append((v, v))
    lines += draw(st.lists(st.sampled_from([("#", "x"), ("#a", "b"), ("# c",), ()]), max_size=4))
    if draw(st.integers(0, 4)) == 0:
        lines.append(draw(st.sampled_from([("a",), ("a", "b", "c")])))
    lines = draw(st.permutations(lines))
    sep = st.sampled_from(EDGE_LIST_SEPARATORS)
    text = draw(st.sampled_from(["\n", "\r\n"])).join(
        draw(st.sampled_from(["", " "])) + draw(sep).join(tokens) + draw(st.sampled_from(["", " ", "\t"]))
        for tokens in lines
    )
    return text + draw(st.sampled_from(["", "\n"]))


# Canonical decimals, which the numpy edge-list reader reads, and names it
# leaves to the line loop: leading zeros (007 and 7 are two names), 19 and
# 20 digits (10**18 and beyond), and names that are not numbers.
DECIMAL_NAMES = ["0", "1", "2", "3", "7", "10", "42", "123456789012345678", "999999999999999999"]
ODD_DECIMAL_NAMES = ["00", "007", "1000000000000000000", "18446744073709551616", "a", "é", "x#y"]
DECIMAL_SEPARATORS = [" ", " ", " ", "  ", "\t", " \t", "\x0c", "\xa0", "　"]


@st.composite
def decimal_edge_lists(draw) -> str:
    """Edge lists of mostly canonical decimal names, with blank and comment
    lines at the top and in the middle, CRLF, tabs and trailing spaces, now
    and then a name the reader leaves to the line loop, a form feed or
    non-ASCII separator, a line of 1 or 3 tokens, and maybe no final LF."""
    names = st.sampled_from(DECIMAL_NAMES * 8 + ODD_DECIMAL_NAMES)
    kinds = st.sampled_from(["edge"] * 12 + ["blank", "comment", "short", "long"])
    lines = [draw(st.sampled_from([(), ("#", "header"), ("#1", "2"), (" ",)])) for _ in range(draw(st.integers(0, 2)))]
    for kind in draw(st.lists(kinds, max_size=24)):
        if kind == "edge":
            lines.append((draw(names), draw(names)))
        elif kind == "comment":
            lines.append(draw(st.sampled_from([("#",), ("#", "1", "2"), ("#7", "8")])))
        elif kind == "short":
            lines.append((draw(names),))
        elif kind == "long":
            lines.append((draw(names), draw(names), draw(names)))
        else:
            lines.append(())
    sep = st.sampled_from(DECIMAL_SEPARATORS)
    ends = st.sampled_from(["\n"] * 6 + ["\r\n", "\r"])
    text = "".join(
        draw(st.sampled_from(["", "", " "])) + draw(sep).join(tokens) + draw(st.sampled_from(["", "", " ", "\t"]))
        + draw(ends)
        for tokens in lines
    )
    return text[:-1] if text and draw(st.booleans()) and text[-1] == "\n" else text


@st.composite
def proper_colorings(draw, graph) -> Coloring:
    """Proper colorings of `graph`, built otherwise than greedily.

    A random trial (Luby; Johansson) colors the graph: in each round every
    uncolored vertex draws a color from a palette of its degree + 1 + 0-3
    spare colors, less its colored neighbors' ones, and keeps it unless an
    uncolored neighbor drew it too; the round's first vertex always keeps
    its draw, so that a round never colors nothing.  Then classes are
    split, singletons split off, classes with no edge between them merged,
    and the classes put in any order.
    """
    adjacency = graph.adjacency
    spare = draw(st.integers(0, 3))
    color = [-1] * graph.n
    uncolored = draw(st.permutations(range(graph.n)))
    while uncolored:
        trial = {}
        for v in uncolored:
            held = {color[u] for u in adjacency[v]}
            trial[v] = draw(st.sampled_from([c for c in range(len(adjacency[v]) + 1 + spare) if c not in held]))
        for v in uncolored:
            if v == uncolored[0] or all(trial.get(u) != trial[v] for u in adjacency[v]):
                color[v] = trial[v]
        uncolored = [v for v in uncolored if color[v] < 0]
    classes = [[v for v in range(graph.n) if color[v] == c] for c in sorted(set(color))]
    for _ in range(draw(st.integers(0, 4)) if classes else 0):
        i = draw(st.integers(0, len(classes) - 1))
        move = draw(st.sampled_from(["split", "singleton", "merge"]))
        if move == "merge" and len(classes) > 1:
            j = draw(st.integers(0, len(classes) - 1))
            if j != i and not {u for v in classes[i] for u in adjacency[v]} & set(classes[j]):
                classes[min(i, j)] += classes.pop(max(i, j))
        elif move != "merge" and len(classes[i]) > 1:
            cut = 1 if move == "singleton" else draw(st.integers(1, len(classes[i]) - 1))
            members = draw(st.permutations(classes[i]))
            classes[i:i + 1] = [members[:cut], members[cut:]]
    classes = draw(st.permutations(classes))
    color_of = [0] * graph.n
    for c, members in enumerate(classes):
        for v in members:
            color_of[v] = c
    return Coloring(color_of=tuple(color_of), classes=tuple(map(tuple, classes)))
