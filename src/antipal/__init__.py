"""Binary morphisms and the antipalindromic structure of their fixed points.

numpy loads on first use.  No module that ``antipal.cli`` imports at load
time imports numpy: the antipalindrome kernel in ``words`` imports it inside
its functions, and the factor index (``language``, a numpy module) is
imported by the commands that build one and by first access to its names
here.
"""

from .errors import (
    AntipalError,
    BadBounds,
    ConsistencyError,
    CyclicMorphism,
    EmptyWordError,
    EquationFails,
    HypothesisNotMet,
    NoCommonRoot,
    NoNormalForm,
    NoSolution,
    NotAntipalindrome,
    NotCommuting,
    NotInThetaImage,
    NotPrimitive,
    NotProlongable,
    ParseError,
    PreconditionViolated,
)
from .words import (
    Word,
    check_word,
    complement,
    exchange,
    is_antipalindrome,
    is_palindrome,
    longest_antipalindrome,
    parse_word,
    primitive_root,
    reverse,
    smallest_period,
    theta_apply,
    theta_decode,
)
from .equations import (
    CommutationSolution,
    PalAntipalSolution,
    TransferSolution,
    antipal_periodic_normal_form,
    decompose_two_antipalindromes,
    decompose_two_palindromes,
    fine_wilf_root,
    solve_commutation,
    solve_pal_antipal,
    solve_transfer,
)
from .morphisms import (
    ConjugacyChain,
    FrequencyVector,
    Morphism,
    apply,
    compose,
    conjugacy_chain,
    fixed_point_prefix,
    fixed_point_source,
    format_morphism,
    incidence,
    is_primitive,
    is_uniform,
    letter_frequencies,
    parse_morphism,
    prolongable_letters,
    square,
)
from .membership import (
    A1Witness,
    A2Witness,
    ClassificationReport,
    EPSuffixWitness,
    EPWitness,
    EvidenceConfig,
    PWitness,
    a1_witnesses,
    a2_witnesses,
    classify,
    ep_suffix_witnesses,
    ep_witnesses,
    p_witnesses,
    witness_from_dict,
)

__version__ = "0.1.0"

# The factor index is a numpy module: its names resolve on first access.
_LANGUAGE = ("CensusRow", "FactorIndex", "bispecial_orbit", "bispecial_successor", "build_index")


def __getattr__(name: str):
    if name in _LANGUAGE:
        from . import language

        return getattr(language, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LANGUAGE})
