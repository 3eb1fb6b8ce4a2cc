"""deolog: a workbench for preference semantics of deontic logic.

Parse formulas of a preference language, evaluate them in selection-function
models, search for countermodels in three regimes (basic, delta, weighted),
and check Hilbert-style derivations in the matching modal system.
"""

from .syntax import (Formula, Var, Not, And, Or, Implies, Iff, PrefWeak,
                     PrefStrict, PrefEq, PrefWeakRev, PrefStrictRev, Top, Bot,
                     Box, Diamond, Oblig, Perm, CondOblig, ParseError, parse,
                     pretty, desugar, is_core, variables, surface_variables,
                     modal_depth)
from .models import (World, Model, Evaluator, MissingSelectionError,
                     make_worlds, powerset_worlds, world_from_members,
                     symmetric_difference, denote, holds_at, validate_model)
from .regimes import (WeightClass, BasicRegime, DeltaRegime, WeightedRegime,
                      DEFAULT_GRID, delta_minimal, weighted_distance,
                      p_nearest, forced_choice, enumerate_weight_orders)
from .orders import (ComparisonAtom, solve_order_constraints,
                     bruteforce_weak_orders, ordered_bell)
from .engine import (Sequent, Verdict, BudgetExceeded, check, satisfiable,
                     find_countermodel_basic, find_countermodel_delta,
                     check_forall_weights_invalidity)

__version__ = "0.1.0"
