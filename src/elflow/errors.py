"""Exception types shared across solvers, diagnostics and the CLI."""


class ElflowError(Exception):
    """Base class for all package errors."""


class FieldCompatibilityError(ElflowError, ValueError):
    """Input field data violates an operation's preconditions."""


class ConfigError(ElflowError, ValueError):
    """A run configuration is invalid or inconsistent."""


class CFLViolationError(ElflowError):
    """The requested time step exceeds the advective CFL bound."""

    def __init__(self, dt, h, max_u, limit):
        self.dt, self.h, self.max_u, self.limit = dt, h, max_u, limit
        super().__init__(
            f"CFL violation: max|u|*dt/h = {max_u * dt / h:.3g} > {limit} "
            f"(dt={dt:.3g}, h={h:.3g}, max|u|={max_u:.3g})"
        )


class BlowUpError(ElflowError):
    """Non-finite values or runaway growth detected during time stepping."""

    def __init__(self, message, t=None):
        self.t = t
        super().__init__(message if t is None else f"t={t:.6g}: {message}")


class NearSingularJacobianError(ElflowError):
    """det(I + grad ell) dropped below the invertibility floor somewhere.

    Carries the worst grid point and its determinant so callers can decide
    whether a label reset would recover conditioning.
    """

    def __init__(self, det_value, point, floor):
        self.det_value = float(det_value)
        self.point = tuple(int(i) for i in point)
        self.floor = float(floor)
        super().__init__(
            f"deformation jacobian near-singular: det = {self.det_value:.4g} at "
            f"grid point {self.point} (floor {self.floor:g}); a label reset may "
            "restore conditioning"
        )
