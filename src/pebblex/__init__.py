"""Pebble exchange puzzles on graphs.

Two graphs of the same size define a puzzle: pebbles (vertices of the
pebble graph) sit on board vertices, and one move swaps two pebbles
that are adjacent in the pebble graph across an edge of the board.
This package decides reachability questions by configuration-space
search, computes the group of automorphisms reachable in the
self-puzzle, applies closed-form feasibility tests for structured
pebble families, and synthesizes explicit, replayable move sequences
that realize automorphisms on squared boards.
"""

from .errors import (
    BoardPathError,
    CapExceededError,
    FlipError,
    GraphParseError,
    IllegalMoveError,
    PebblePathError,
    PuzzleError,
    RealizationError,
    SynthesisError,
)
from .graphs import (
    Graph,
    cartesian_product,
    complement,
    complete,
    complete_multipartite,
    cycle,
    format_graph,
    girth,
    has_k_isthmus,
    hypercube,
    is_2connected,
    is_bipartite,
    is_connected,
    is_cycle,
    is_tree,
    join,
    parse_graph,
    path,
    square,
    star,
    theta_122,
)
from .names import graph_from_desc
from .perms import (
    GroupSummary,
    automorphism_count,
    automorphisms,
    automorphisms_dict,
    compose,
    cycle_notation,
    identity_perm,
    inverse,
    is_automorphism,
    isomorphisms,
    parse_perm,
    perm_order,
    perm_power,
    sign,
)
from .puzzle import (
    DEFAULT_CAP,
    Puz,
    apply_move,
    bfs_witness,
    equivalent,
    identity_configuration,
    is_feasible,
    is_peb_normal_in_aut,
    pebble_exchange_group,
    puz_on,
    reachable_count,
    reachable_set,
    replay,
    transpose_instance,
    transpose_sequence,
)
from .flips import (
    DEFAULT_FLIP_CAP,
    all_flip_paths,
    apply_flip,
    compose_flip_sequences,
    flip_bfs_oracle,
    flip_bfs_witness,
    flip_reachable_set,
    flip_sequence_permutation,
    format_flip_sequence,
    parse_flip_sequence,
    realize_by_flips,
    replay_flips,
)
from .squares import (
    MoveCertificate,
    compile_automorphism_to_square_moves,
    format_certificate,
    parse_certificate,
    reversal,
    seq_A,
    seq_B,
    seq_C,
    sequence_length,
)
from .classify import (
    FeasibilityVerdict,
    bipartite_pebbles_feasible,
    classify_instance,
    girth5_reachable_oracle,
    kms_feasible,
    multipartite_feasible,
    pebble_family,
    verify_examples_agreement,
    verify_flip_lemma,
    verify_parity_example,
    verify_prop2,
    verify_product_theorem,
    verify_square_lemma,
    wilson_feasible,
)
from .catalog import (
    canonical_key,
    connected_graphs,
    girth5_graphs,
    random_connected_graphs,
    trees,
)

__version__ = "0.1.0"
