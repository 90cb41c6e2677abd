"""Public-coordinator conversion of adversarial team games.

Convert team-vs-adversary extensive-form games into two-player zero-sum
games solvable by CFR-family algorithms, with information-lossless
pruned/folded/safe-imperfect-recall representations, benchmark generators
(toy, 3-player Kuhn and Leduc poker), node-census analytics and an exact
team-maxmin-with-correlation oracle.
"""
from .model import (  # noqa: F401
    CHANCE,
    COORDINATOR,
    OPPONENT,
    Edge,
    Node,
    PlayerRole,
    VEFG,
    derive_visibility_class,
    infosets,
    is_public_turn_taking,
    make_public_turn_taking,
    public_states,
    team_member,
    team_perfect_recall_refinement,
    validate_game,
    validate_perfect_recall,
)
from .convert import (  # noqa: F401
    ConvertedGame,
    apply_safe_imperfect_recall,
    check_payoff_equivalence,
    convert_basic,
    convert_folded,
    convert_pruned,
    map_coordinator_to_team,
    map_team_to_coordinator,
)
from .games import PokerSpec, ToySpec, gen_kuhn3, gen_leduc3, gen_toy  # noqa: F401
from .census import (  # noqa: F401
    NodeCensus,
    census,
    count_basic,
    count_folded,
    count_normal_plans,
    count_pruned,
)
