"""Exception hierarchy for fwmsim.

Two families matter to the CLI: configuration problems (exit code 2) and
numeric failures (exit code 3). Everything else is a bug.
"""


class FwmsimError(Exception):
    """Base class for all fwmsim errors."""


class ConfigError(FwmsimError):
    """Invalid or malformed run configuration.

    ``field`` holds a dotted path into the config document, e.g.
    ``"circuit.e_j1"``.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class NumericError(FwmsimError):
    """Base class for numeric failures (CLI exit code 3)."""


class DegeneracyError(NumericError):
    """A level splitting vanished; mixing angles are undefined."""


class SingularityError(NumericError):
    """A closed-form expression hit a vanishing detuning denominator."""


class SchemeError(FwmsimError):
    """Scheme/drive mismatch or unsupported scheme request."""


class FrameError(NumericError):
    """No static co-rotating frame exists for the requested Hamiltonian."""


class IntegrationError(NumericError):
    """Propagation failed its accuracy or unitarity contract."""


class TrackingError(NumericError):
    """A dressed state or subspace lost its bare label (overlap < 0.5)."""


class TruncationError(NumericError):
    """Fock cutoff too small for the requested operation amplitude."""


class OracleError(NumericError):
    """The dressed-energy oracle could not balance its pair's Delta_F."""


class OptimizationError(NumericError):
    """No candidate evaluation of a fidelity search succeeded."""
