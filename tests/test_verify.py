from zdgame import validate_payoffs
from zdgame import verify


def test_fd_analytic_match_passes_on_documented_command():
    # the draws of `zdgame verify --T 1.5 --S -0.5 --seed 0 --sample-scale 1.0`
    result = verify._fd_analytic_match(validate_payoffs(1.5, -0.5), 0, 1.0)
    assert result.passed, result.line()
    assert result.samples == 1000
