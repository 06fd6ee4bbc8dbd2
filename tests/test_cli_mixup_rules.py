"""The CLI's mixup options are checked by ``MixupConfig`` itself: its error, exit code 1, is what the CLI prints."""

import json

import pytest

from pseudocal import cli, pseudo_target
from pseudocal.errors import InvalidInputError


@pytest.mark.parametrize(
    "key, value, by_flag",
    [
        ("lam", 0.5, True),
        ("lam", 0.5, False),
        ("label_mode", "fuzzy", False),
        ("lambda_policy", "uniform", False),
        ("pairing", "x", False),
    ],
    ids=["lambda-flag", "config-lam", "config-label-mode", "config-lambda-policy", "config-pairing"],
)
def test_cli_prints_mixup_configs_own_error(tmp_path, monkeypatch, capsys, key, value, by_flag):
    with pytest.raises(InvalidInputError) as rejected:
        pseudo_target.MixupConfig(**{key: value})
    monkeypatch.chdir(tmp_path)
    argv = ["calibrate", "--task", "t.json", "--model", "m.json", "--out", "c.json"]
    if by_flag:
        argv += ["--lambda", str(value)]
    else:
        (tmp_path / "config.json").write_text(json.dumps({key: value}))
        argv += ["--config", "config.json"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: InvalidInputError: {rejected.value}\n"
    assert not (tmp_path / "c.json").exists()
