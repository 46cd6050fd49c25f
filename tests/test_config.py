"""Config parsing: defaults, validation, diagnostics."""

import pytest

from nsab.config import ConfigError, parse_config


def test_minimal_config_defaults():
    cfg = parse_config("experiment.kind = eigs\n")
    assert cfg.resolution.N1 == 16 and cfg.resolution.N2 == 16
    assert cfg.resolution.P == 32
    assert cfg.params.alpha == 0.2 and cfg.params.beta == 0.1
    assert cfg.kind == "eigs"


def test_subcommand_override_and_conflict():
    cfg = parse_config("model.gamma = 0.5\n", kind_override="solve")
    assert cfg.kind == "solve"
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config("experiment.kind = eigs\n", kind_override="solve")


def test_domain_error_names_constraint():
    text = "experiment.kind = solve\nmodel.alpha = 0.1\nmodel.beta = 0.2\n"
    with pytest.raises(ConfigError, match="alpha must exceed beta"):
        parse_config(text)


def test_duplicate_key_names_both_lines():
    text = "experiment.kind = solve\nmodel.alpha = 0.3\nmodel.alpha = 0.4\n"
    with pytest.raises(ConfigError, match="first set on line 2, again on line 3"):
        parse_config(text)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key 'bogus.key'"):
        parse_config("experiment.kind = solve\nbogus.key = 1\n")


def test_syntax_error_reports_line_and_col():
    with pytest.raises(ConfigError, match="line 2") as exc:
        parse_config("experiment.kind = solve\nmodel.alpha 0.3\n")
    assert exc.value.line == 2
    assert exc.value.col is not None


def test_bad_value_type():
    with pytest.raises(ConfigError, match="cannot parse value"):
        parse_config("experiment.kind = solve\nresolution.P = many\n")


def test_missing_kind():
    with pytest.raises(ConfigError, match="experiment.kind missing"):
        parse_config("model.alpha = 0.3\n")


def test_comments_and_blank_lines():
    text = """
# full-line comment
experiment.kind = evolve   # trailing comment
time.dt = 0.005
"""
    cfg = parse_config(text)
    assert cfg["time.dt"] == 0.005


def test_int_list_values():
    cfg = parse_config("experiment.kind = convergence\n"
                       "convergence.p_values = 8, 16,24\n")
    assert cfg["convergence.p_values"] == (8, 16, 24)


def test_canonical_round_trip():
    text = ("experiment.kind = evolve\nmodel.gamma = -0.25\n"
            "time.dt = 0.0125\nresolution.P = 20\nresolution.N1 = 8\n"
            "resolution.N2 = 8\n")
    cfg = parse_config(text)
    echo = cfg.canonical_text()
    cfg2 = parse_config(echo)
    assert cfg2.values == cfg.values
    assert cfg2.canonical_text() == echo


@pytest.mark.parametrize("T, dt", [(0.2, 0.02), (0.5, 0.02), (0.04, 0.02),
                                   (1.0, 0.005), (1.0, 0.0125)])
def test_horizon_whole_number_of_steps_accepted(T, dt):
    cfg = parse_config(f"experiment.kind = evolve\ntime.T = {T}\ntime.dt = {dt}\n")
    assert cfg["time.T"] == T and cfg["time.dt"] == dt


@pytest.mark.parametrize("T, dt", [(0.1, 0.03), (0.1, 0.2), (1.0, 0.3),
                                   (1.0, 1e-320)])
def test_horizon_not_a_whole_number_of_steps_rejected(T, dt):
    with pytest.raises(ConfigError, match="not a whole multiple of time.dt"):
        parse_config(f"experiment.kind = evolve\ntime.T = {T}\ntime.dt = {dt}\n")
