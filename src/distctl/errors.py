"""Exception types shared across the package."""


class DistctlError(Exception):
    """Base class for all library errors. `exit_code` is the CLI's exit status
    when the error stops a run: 2 for a configuration error unless a subclass
    says otherwise."""

    exit_code = 2


class NumericalError(DistctlError):
    """A numerical failure of the method itself (CLI exit 3). `iteration` is
    the training iteration it stopped, once a training loop has named it."""

    exit_code = 3
    iteration: int | None = None

    def at_iteration(self, i: int) -> "NumericalError":
        """Prefix `iteration i: ` to the message, unless an iteration is named already."""
        if self.iteration is None:
            self.iteration = i
            self.args = (f"iteration {i}: {self}",)
        return self


class ConfigError(DistctlError):
    """Invalid configuration. `field` names the offending value, and the
    message reads `<field> <rule>`; the config loader prefixes its block path."""

    def __init__(self, rule: str, field: str | None = None):
        self.rule = rule
        self.field = field
        super().__init__(f"{field} {rule}" if field else rule)


class SampleCountTooLarge(ConfigError):
    """A sample count of the config past `seqspace.SAMPLE_COUNT_GUARD`,
    refused where the config objects are built, before anything is drawn: a
    ConfigError naming its field, with the size guards' exit code."""

    exit_code = 4


class UniverseTooLarge(DistctlError):
    """Sequence universe exceeds the exhaustive-enumeration guard."""

    exit_code = 4


class AutomatonTooLarge(DistctlError):
    """The constraint features' product automaton exceeds its state guard."""

    exit_code = 4


class EmptyCorpus(DistctlError):
    """Corpus contains no usable sequences (or tokens)."""


class SchemaMismatch(DistctlError):
    """Persisted document does not match the expected schema/version."""


class NotTrainable(DistctlError):
    """Gradient or update requested on a frozen model."""


class NoPointwiseConstraints(DistctlError):
    """Pointwise predicate requested on a set with no pointwise constraints."""


class DegenerateWeights(NumericalError):
    """Importance weights collapsed to an unusable (zero/non-finite) sum."""


class UnattainableTarget(NumericalError):
    """Constraint target lies outside the sampled feature hull."""

    def __init__(self, constraint_id: str, target: float, low: float, high: float):
        self.constraint_id = constraint_id
        self.target = target
        self.low = low
        self.high = high
        super().__init__(
            f"target {target} for constraint '{constraint_id}' is outside the "
            f"sampled feature hull [{low}, {high}]"
        )


class EmptySupport(NumericalError):
    """Unnormalized scores sum to zero; no distribution exists."""


class SupportViolation(NumericalError):
    """A required support-covering condition fails on the given samples."""


class NonpositiveZ(NumericalError):
    """Partition-function estimate is not positive where one is required."""


class TooFewSamples(DistctlError):
    """Metric needs more samples than were provided."""


class NoAcceptedSamples(NumericalError):
    """Rejection sampling exhausted its budget without a single acceptance."""


class NonFiniteEstimate(NumericalError):
    """An importance-sampling estimate's terms would overflow to a non-finite value."""


class NonFiniteLogits(NumericalError):
    """A training update would make a logit NaN or infinite."""


class SaturatedPolicy(NumericalError):
    """A training update would give some next token probability 0.0 in float64."""
