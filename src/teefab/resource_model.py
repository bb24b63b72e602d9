"""Fabric resource budget: measured utilization rows plus linear headroom."""

from __future__ import annotations

from collections import namedtuple
from pathlib import Path

RESOURCES = ("lut", "lutram", "ff", "bram", "dsp", "io", "bufg")
# io/bufg stay constant as designs grow, so they never bind the fit.
FIT_RESOURCES = ("lut", "lutram", "ff", "bram", "dsp")


class InvalidEnclaveCount(ValueError):
    """n < 1 makes no sense for a utilization query."""


class ResourceVector(namedtuple("ResourceVector", RESOURCES)):
    """Per-class resource counts for one design point or device."""

    __slots__ = ()

    def get(self, name):
        return getattr(self, name)

    def as_dict(self):
        return {name: getattr(self, name) for name in RESOURCES}

    def fits(self, capacity):
        """Component-wise fit over the binding resource classes only."""
        return all(self.get(r) <= capacity.get(r) for r in FIT_RESOURCES)


class DeviceProfile(namedtuple("DeviceProfile", "name capacity")):
    __slots__ = ()


ZU3EG = DeviceProfile("zu3eg", ResourceVector(
    lut=70560, lutram=28800, ff=141120, bram=216, dsp=360, io=82, bufg=196))

PROFILES = {"zu3eg": ZU3EG}

# Synthesis measurements for the 1..4-enclave design points.
MEASURED = {
    1: ResourceVector(lut=9845, lutram=807, ff=11532, bram=34, dsp=3, io=2, bufg=3),
    2: ResourceVector(lut=14844, lutram=987, ff=17034, bram=68, dsp=6, io=2, bufg=4),
    3: ResourceVector(lut=20146, lutram=1171, ff=22735, bram=102, dsp=9, io=2, bufg=4),
    4: ResourceVector(lut=24963, lutram=1355, ff=28026, bram=136, dsp=12, io=2, bufg=4),
}

# Average cost of one further enclave; io/bufg are design-constant.
DELTA = ResourceVector(lut=5000, lutram=180, ff=5500, bram=34, dsp=3, io=0, bufg=0)


def percent_string(count, capacity):
    """count/capacity as a percentage, truncated to two decimals."""
    whole, frac = divmod(count * 10000 // capacity, 100)
    return f"{whole}.{frac:02d}"


def _counts(n_enclaves):
    """Resource counts of an n-enclave design: measured rows for n <= 4,
    linear extrapolation from the 4-enclave row beyond that."""
    if not isinstance(n_enclaves, int) or n_enclaves < 1:
        raise InvalidEnclaveCount(f"enclave count must be >= 1, got {n_enclaves!r}")
    extra = n_enclaves - 4
    return MEASURED.get(n_enclaves) or ResourceVector(**{
        r: MEASURED[4].get(r) + extra * DELTA.get(r) for r in RESOURCES})


def utilization(n_enclaves, device=ZU3EG):
    """(counts, percentages of the device) of an n-enclave design."""
    counts = _counts(n_enclaves)
    return counts, {r: percent_string(counts.get(r), device.capacity.get(r))
                    for r in RESOURCES}


def fits(n_enclaves, device=ZU3EG):
    return _counts(n_enclaves).fits(device.capacity)


def max_enclaves(device=ZU3EG):
    """(largest fitting enclave count, the resource that fails next): the
    fit resource most oversubscribed one enclave past the count."""
    count = 0
    while fits(count + 1, device):
        count += 1
    over = _counts(count + 1)
    binding = max(FIT_RESOURCES,
                  key=lambda r: over.get(r) / device.capacity.get(r))
    return count, binding


def render_report(n_enclaves, device=ZU3EG):
    """Table-shaped utilization report for one design point."""
    counts, percent = utilization(n_enclaves, device)
    lines = [
        f"design: {n_enclaves} enclave(s) on {device.name}",
        f"{'resource':<10}{'used':>8}{'capacity':>10}{'percent':>9}",
    ]
    for r in RESOURCES:
        note = "" if r in FIT_RESOURCES else "  (excluded from fit)"
        lines.append(f"{r:<10}{counts.get(r):>8}{device.capacity.get(r):>10}"
                     f"{percent[r]:>8}%{note}")
    ceiling, binding = max_enclaves(device)
    verdict = "fits" if counts.fits(device.capacity) else "does not fit"
    lines.append(f"fit: {verdict}; device ceiling {ceiling} enclave(s), "
                 f"binding resource {binding}")
    return "\n".join(lines)


def read_key_values(path):
    """Yield (line number, key, value) for each `key = value` line of a
    file: `#` starts a comment, blank lines are skipped, and any other
    line raises ValueError naming `path:line`."""
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(
                f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key, value


def load_profile(path):
    """Read a device profile from a key=value file (name + 7 capacities)."""
    fields = {key: value for _lineno, key, value in read_key_values(path)}
    try:
        name = fields.pop("name")
        capacity = ResourceVector(**{r: int(fields.pop(r)) for r in RESOURCES})
    except KeyError as exc:
        raise ValueError(f"profile is missing field {exc.args[0]}") from None
    if fields:
        raise ValueError(f"unknown profile fields: {sorted(fields)}")
    if any(capacity.get(r) <= 0 for r in RESOURCES):
        raise ValueError("capacities must be positive")
    return DeviceProfile(name, capacity)


def get_profile(name_or_path):
    """Resolve a profile by builtin name, else by config-file path."""
    if isinstance(name_or_path, DeviceProfile):
        return name_or_path
    key = str(name_or_path).lower()
    if key in PROFILES:
        return PROFILES[key]
    if Path(name_or_path).is_file():
        return load_profile(name_or_path)
    raise ValueError(f"unknown device profile {name_or_path!r}")
