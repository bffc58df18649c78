"""Closed-form physics of a nanoparticle levitated in a focused laser beam.

Everything here derives from a single parameter set: the Gaussian-beam trap
frequencies, the Rayleigh scattering rate of trap photons, the resulting
position-localization rate and decoherence time for spatial superpositions,
and the mapping of the free-space setup onto an equivalent lossy-cavity
optomechanical system (g0/kappa figure of merit).

All operations are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real
from pathlib import Path

from .constants import C, HBAR, TWO_PI
from .errors import ConfigError


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameter set of the trap, laser, environment and detector.

    The defaults are the reference experiment that ``reference.cfg`` also
    holds: 1550 nm, 650 mW, silica (eps_r = 2.1, rho = 2200 kg/m^3), particle
    radius 17 nm, room temperature at 1e-2 mbar, and the waist
    ``calibrate_waist(2 pi x 70 kHz, ...)`` gives, so the axial frequency is
    2 pi x 70 kHz, the one trap observable that is pinned.

    All values are SI except ``pressure_mbar``. ``field_amp_A`` and
    ``field_amp_B`` are the interferometer field amplitudes of the unscattered
    and particle-scattered beams at the detector, in a common arbitrary unit;
    only products and ratios of them enter the detection model together with
    the count prefactor.
    """

    wavelength_m: float = 1550e-9
    power_W: float = 0.65
    waist_m: float = 9.272168931765024e-07
    particle_radius_m: float = 17e-9
    density_kg_m3: float = 2200.0
    epsilon_r: float = 2.1
    temperature_K: float = 300.0
    pressure_mbar: float = 1e-2
    detector_area_m2: float = 1e-6
    integration_time_s: float = 1e-6
    field_amp_A: float = 100.0
    field_amp_B: float = 10.0
    phase_d_rad: float = math.pi / 2.0
    phase_s_rad: float = 0.0
    # Toggle for the textbook Rayleigh cross section (epsilon_c^2 and a factor
    # 1/3) instead of the 8 pi^3 eps_c V^2 / lambda^4 form used by default.
    rayleigh_standard_form: bool = False

    def __post_init__(self):
        """Raise :class:`ConfigError` naming the first non-physical field."""
        positive = ("wavelength_m", "power_W", "waist_m", "particle_radius_m", "density_kg_m3", "temperature_K")
        positive += ("pressure_mbar", "detector_area_m2", "integration_time_s")
        check_fields(self, ConfigError, positive, non_negative=("field_amp_A", "field_amp_B"))
        if not self.epsilon_r > 1.0:
            raise ConfigError(
                f"epsilon_r must exceed 1 (otherwise the polarizability factor is"
                f" non-positive and no trap forms), got {self.epsilon_r!r}"
            )
        if not math.isfinite(self.delta_phi_rad):
            raise ConfigError(f"phase_d_rad - phase_s_rad must be finite, got {self.delta_phi_rad!r}")

    @property
    def rayleigh_range_m(self) -> float:
        """z_R = pi w0^2 / lambda, derived, never stored."""
        return math.pi * self.waist_m**2 / self.wavelength_m

    @property
    def delta_phi_rad(self) -> float:
        """Interferometer phase difference phi_d - phi_s."""
        return self.phase_d_rad - self.phase_s_rad


def check_fields(params, error: type[Exception], positive=(), non_negative=()) -> None:
    """The field rule of every parameter object: raise ``error`` naming the first field of the dataclass ``params``
    annotated ``float`` that is not a finite real number or annotated ``int`` that is not an integer, or that is not
    above 0 though named in ``positive``, or below 0 though named in ``non_negative``."""
    for f in fields(params):
        if f.type not in ("float", "int"):
            continue
        value = getattr(params, f.name)
        if f.type == "int":
            kind, valid = "an integer", isinstance(value, Integral)
        else:
            kind, valid = "a finite number", isinstance(value, Real) and math.isfinite(value)
        if f.name in positive:
            kind, valid = kind + " > 0", valid and value > 0
        elif f.name in non_negative:
            kind, valid = kind + " >= 0", valid and value >= 0
        if not valid:
            raise error(f"{f.name} must be {kind}, got {value!r}")


def from_mapping(cls, mapping: dict):
    """A ``cls`` (:class:`ExperimentConfig` or ``cli.PipelineSettings``) whose fields that ``mapping`` names take its
    values, each parsed as the type of that field's default, and whose other fields keep their defaults; an unknown
    key is an error."""
    kinds = {f.name: type(f.default) for f in fields(cls)}
    for key in mapping:  # checked before any value is parsed: an unknown key is reported ahead of a bad value
        if key not in kinds:
            raise ConfigError(f"unknown configuration key {key!r}")
    return cls(**{key: _coerce(key, raw, kinds[key]) for key, raw in mapping.items()})


def _coerce(key: str, raw, kind):
    """``raw`` as a ``kind``: bool, int, float or str; an integer is never truncated from a fraction."""
    if kind is str:
        return str(raw)
    if kind is int:
        try:
            return int(str(raw))
        except ValueError:
            raise ConfigError(f"cannot parse {key!r}: expected an integer, got {raw!r}") from None
    if isinstance(raw, (int, float, bool)):
        return kind(raw)
    text = str(raw).strip()
    if kind is bool:
        low = text.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"cannot parse {key!r}: expected a boolean, got {raw!r}")
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key!r}: expected a number, got {raw!r}") from exc


def load_key_values(path: str | Path) -> dict[str, str]:
    """Parse a flat ``name = value`` configuration file of UTF-8 text.

    One pair per line; blank lines and ``#`` comments (whole-line or trailing)
    are ignored. Duplicate keys are an error so typos cannot shadow values.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"configuration file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file ({exc})") from None
    result: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'name = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'name = value', got {line!r}")
        if key in result:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        result[key] = value
    return result


@dataclass(frozen=True)
class DerivedQuantities:
    """Every closed-form quantity computed from an :class:`ExperimentConfig`."""

    epsilon_c: float  # 3 (eps_r - 1) / (eps_r + 2)
    volume_m3: float  # 4 pi r^3 / 3
    mass_kg: float  # rho V
    z_R_m: float  # Rayleigh range pi w0^2 / lambda
    omega_s_rad_s: float  # axial trap frequency
    omega_x_rad_s: float  # transverse trap frequency
    omega_y_rad_s: float  # equal to omega_x by symmetry
    cross_section_m2: float  # Rayleigh scattering cross section
    gamma_scatter_per_s: float  # photon scattering rate
    Gamma_loc_per_m2_s: float  # position-localization rate
    z_zpf_m: float  # zero-point fluctuation sqrt(hbar / 2 m omega_s)
    g0_over_kappa: float  # cavity-equivalent coupling over linewidth


def derive(config: ExperimentConfig) -> DerivedQuantities:
    """Compute all derived quantities from the closed forms.

    * epsilon_c = 3 (eps_r - 1) / (eps_r + 2)
    * omega_s = sqrt(2 eps_c P / (rho c lambda z_R^3)) with z_R = pi w0^2/lambda
    * omega_x = omega_y = omega_s z_R sqrt(2) / w0 (ratio of the quadratic
      trap coefficients 1/w0^2 and 1/(2 z_R^2))
    * sigma = 8 pi^3 eps_c V^2 / lambda^4 (or the textbook form
      (8 pi^3 / 3) eps_c^2 V^2 / lambda^4 when ``rayleigh_standard_form``)
    * gamma = sigma / (pi w0^2) * P / (hbar omega_L), omega_L = 2 pi c/lambda
    * Gamma = 12 pi^2 gamma / (5 lambda^2)
    * z_zpf = sqrt(hbar / (2 m omega_s)); g0/kappa = 4 pi z_zpf / lambda

    Every quantity must come out finite and positive: otherwise, or where the
    arithmetic leaves the range of a float, :class:`ConfigError` says so.
    """
    lam = config.wavelength_m
    try:
        eps_c = 3.0 * (config.epsilon_r - 1.0) / (config.epsilon_r + 2.0)
        volume = 4.0 / 3.0 * math.pi * config.particle_radius_m**3
        mass = config.density_kg_m3 * volume
        z_r = config.rayleigh_range_m
        omega_s = math.sqrt(2.0 * eps_c * config.power_W / (config.density_kg_m3 * C * lam * z_r**3))
        omega_x = omega_s * z_r * math.sqrt(2.0) / config.waist_m
        if config.rayleigh_standard_form:
            sigma = (8.0 * math.pi**3 / 3.0) * eps_c**2 * volume**2 / lam**4
        else:
            sigma = 8.0 * math.pi**3 * eps_c * volume**2 / lam**4
        omega_laser = TWO_PI * C / lam
        gamma = sigma / (math.pi * config.waist_m**2) * config.power_W / (HBAR * omega_laser)
        big_gamma = 12.0 * math.pi**2 * gamma / (5.0 * lam**2)
        z_zpf = math.sqrt(HBAR / (2.0 * mass * omega_s))
    except (ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"a derived quantity leaves the range of a float: {exc.args[-1]}") from None
    dq = DerivedQuantities(
        epsilon_c=eps_c,
        volume_m3=volume,
        mass_kg=mass,
        z_R_m=z_r,
        omega_s_rad_s=omega_s,
        omega_x_rad_s=omega_x,
        omega_y_rad_s=omega_x,
        cross_section_m2=sigma,
        gamma_scatter_per_s=gamma,
        Gamma_loc_per_m2_s=big_gamma,
        z_zpf_m=z_zpf,
        g0_over_kappa=4.0 * math.pi * z_zpf / lam,
    )
    for name, value in asdict(dq).items():
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"derived {name} must be finite and positive, got {value!r}")
    return dq


def calibrate_waist(target_omega_s: float, config: ExperimentConfig) -> float:
    """Return the beam waist that makes the axial frequency equal ``target_omega_s``.

    Closed-form inversion of the axial-frequency formula:
    z_R = (2 eps_c P / (rho c lambda omega_s^2))^(1/3), w0 = sqrt(lambda z_R / pi).
    The result does not depend on the waist stored in ``config``.
    """
    if not (math.isfinite(target_omega_s) and target_omega_s > 0):
        raise ConfigError(f"target_omega_s must be positive, got {target_omega_s!r}")
    eps_c = 3.0 * (config.epsilon_r - 1.0) / (config.epsilon_r + 2.0)
    z_r = (
        2.0 * eps_c * config.power_W / (config.density_kg_m3 * C * config.wavelength_m * target_omega_s**2)
    ) ** (1.0 / 3.0)
    return math.sqrt(config.wavelength_m * z_r / math.pi)


def decoherence_time(delta_z: float, dq: DerivedQuantities) -> float:
    """Decoherence time tau(dz) = 1 / (gamma tanh(Gamma dz^2 / gamma)).

    Joins the short-distance regime tau ~ 1/(Gamma dz^2) to the saturated
    long-distance regime tau -> 1/gamma. ``delta_z = 0`` returns ``math.inf``
    (tanh(0) = 0), signalled as a value rather than an error. Where the
    argument of tanh exceeds 20, tanh rounds to 1 and tau is 1/gamma, returned
    without forming dz^2, which a large ``delta_z`` would overflow.
    """
    if not (math.isfinite(delta_z) and delta_z >= 0):
        raise ConfigError(f"delta_z must be non-negative, got {delta_z!r}")
    gamma = dq.gamma_scatter_per_s
    if delta_z > math.sqrt(20.0 * gamma / dq.Gamma_loc_per_m2_s):
        return 1.0 / gamma
    argument = dq.Gamma_loc_per_m2_s * delta_z**2 / gamma
    damping = gamma * math.tanh(argument)
    if damping == 0.0:
        return math.inf
    return 1.0 / damping


def decoherence_curve(delta_z_grid, dq: DerivedQuantities) -> list[tuple[float, float]]:
    """Pointwise (dz, tau) pairs over a strictly increasing, non-negative grid."""
    grid = list(delta_z_grid)
    for i, dz in enumerate(grid):
        if dz < 0:
            raise ConfigError(f"delta_z grid must be non-negative, entry {i} is {dz!r}")
        if i > 0 and dz <= grid[i - 1]:
            raise ConfigError(f"delta_z grid must be strictly increasing at entry {i}")
    return [(dz, decoherence_time(dz, dq)) for dz in grid]

