"""Resource budget model: measured rows, extrapolation, device ceilings."""

import pytest

from teefab.resource_model import (
    FIT_RESOURCES,
    MEASURED,
    RESOURCES,
    ZU3EG,
    DeviceProfile,
    InvalidEnclaveCount,
    ResourceVector,
    fits,
    get_profile,
    load_profile,
    max_enclaves,
    percent_string,
    render_report,
    utilization,
)


def test_percent_string_truncates():
    assert percent_string(1, 3) == "33.33"
    assert percent_string(2, 3) == "66.66"  # truncation, not rounding
    assert percent_string(9845, 70560) == "13.95"
    assert percent_string(136, 216) == "62.96"
    assert percent_string(0, 100) == "0.00"
    assert percent_string(100, 100) == "100.00"


def test_measured_rows_are_exact():
    counts, percent = utilization(2)
    assert counts.as_dict() == {"lut": 14844, "lutram": 987, "ff": 17034,
                                "bram": 68, "dsp": 6, "io": 2, "bufg": 4}
    assert percent["bram"] == "31.48"


def test_extrapolated_rows_are_linear():
    five, _ = utilization(5)
    four, _ = utilization(4)
    assert five.lut == four.lut + 5000
    assert five.bram == four.bram + 34
    assert five.io == four.io and five.bufg == four.bufg
    nine, _ = utilization(9)
    assert nine.dsp == four.dsp + 5 * 3


def test_bad_counts_rejected():
    for bad in (0, -1, 2.5, "3"):
        with pytest.raises(InvalidEnclaveCount):
            utilization(bad)


def test_fit_scan_matches_ceiling():
    ceiling, binding = max_enclaves(ZU3EG)
    assert fits(ceiling) and not fits(ceiling + 1)
    scan = max(n for n in range(1, 33) if fits(n))
    assert scan == ceiling
    over, _ = utilization(ceiling + 1)
    assert over.get(binding) > ZU3EG.capacity.get(binding)


def test_io_and_bufg_never_bind():
    tight = DeviceProfile("tight", ResourceVector(
        lut=10 ** 9, lutram=10 ** 9, ff=10 ** 9, bram=10 ** 9, dsp=10 ** 9,
        io=2, bufg=4))
    counts, _ = utilization(20, tight)
    assert counts.fits(tight.capacity)
    assert set(FIT_RESOURCES) == set(RESOURCES) - {"io", "bufg"}


def test_render_report_shape():
    text = render_report(3)
    lines = text.splitlines()
    assert lines[0] == "design: 3 enclave(s) on zu3eg"
    assert len(lines) == 2 + len(RESOURCES) + 1
    assert "28.55%" in text and "47.22%" in text
    assert "excluded from fit" in text
    assert "binding resource" in lines[-1]


def test_load_profile_round_trip(tmp_path):
    path = tmp_path / "dev.profile"
    path.write_text(
        "# a small device\n"
        "name = small\n"
        "lut = 20000\nlutram = 2000\nff = 40000\n"
        "bram = 70\ndsp = 12\nio = 10\nbufg = 8\n")
    profile = load_profile(path)
    assert profile.name == "small"
    assert profile.capacity.bram == 70
    ceiling, binding = max_enclaves(profile)
    assert ceiling == 2 and binding == "bram"


def test_load_profile_rejects_bad_files(tmp_path):
    missing = tmp_path / "missing.profile"
    missing.write_text("name = x\nlut = 1\n")
    with pytest.raises(ValueError, match="missing field"):
        load_profile(missing)
    unknown = tmp_path / "unknown.profile"
    unknown.write_text(
        "name = x\nlut = 1\nlutram = 1\nff = 1\nbram = 1\ndsp = 1\n"
        "io = 1\nbufg = 1\nextra = 9\n")
    with pytest.raises(ValueError, match="unknown profile fields"):
        load_profile(unknown)
    negative = tmp_path / "negative.profile"
    negative.write_text(
        "name = x\nlut = -1\nlutram = 1\nff = 1\nbram = 1\ndsp = 1\n"
        "io = 1\nbufg = 1\n")
    with pytest.raises(ValueError, match="positive"):
        load_profile(negative)
    garbled = tmp_path / "garbled.profile"
    garbled.write_text("name small\n")
    with pytest.raises(ValueError,
                       match="garbled.profile:1: expected key=value"):
        load_profile(garbled)


def test_get_profile_resolution(tmp_path):
    assert get_profile("zu3eg") is ZU3EG
    assert get_profile("ZU3EG") is ZU3EG
    assert get_profile(ZU3EG) is ZU3EG
    path = tmp_path / "dev.profile"
    path.write_text(
        "name = filedev\nlut = 9\nlutram = 9\nff = 9\nbram = 9\ndsp = 9\n"
        "io = 9\nbufg = 9\n")
    assert get_profile(str(path)).name == "filedev"
    with pytest.raises(ValueError, match="unknown device profile"):
        get_profile("nonexistent")


def test_measured_table_is_monotone():
    for resource in FIT_RESOURCES:
        column = [MEASURED[n].get(resource) for n in sorted(MEASURED)]
        assert column == sorted(column)


def test_vectors_and_profiles_are_frozen_records_that_compare_by_field():
    counts = ResourceVector(**MEASURED[1].as_dict())
    assert counts == MEASURED[1] and hash(counts) == hash(MEASURED[1])
    assert counts != MEASURED[2] and counts.get("bram") == 34
    assert counts.fits(ZU3EG.capacity) and not ZU3EG.capacity.fits(counts)
    profile = DeviceProfile("zu3eg", ResourceVector(**ZU3EG.capacity.as_dict()))
    assert profile == ZU3EG and hash(profile) == hash(ZU3EG)
    assert DeviceProfile("other", ZU3EG.capacity) != ZU3EG
    for record, name in ((counts, "lut"), (counts, "extra"),
                         (profile, "name"), (profile, "capacity")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    assert counts.lut == 9845 and profile.name == "zu3eg"
