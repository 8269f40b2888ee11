"""Tests for the shared plan-request model (``repro.planning``): the same
request gives the same answer, or the same rejection, on the plan CLIs
and on the planning service."""

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cloud.pricing import DEFAULT_CATALOG
from repro.cluster.plan import main as cluster_main
from repro.planning import FIELD, KINDS, PlanRequest, RequestError, build_parser
from repro.service import PlanningService, RequestError as ServiceRequestError
from repro.service.app import normalize_cluster_request, normalize_spot_request, request_digest
from repro.spot.plan import main as spot_main

MAINS = {"cluster": cluster_main, "spot": spot_main}
NORMALIZE = {"cluster": normalize_cluster_request, "spot": normalize_spot_request}

#: The ten valid bodies the repository's benchmark replays, each with
#: its request digest under the built-in price catalog. The digests were
#: taken before the three request paths were merged, so any drift in
#: normalization, field order or defaults fails here.
POOL_DIGESTS = [
    ("cluster", {"model": "mixtral", "gpu": ["a40"]},
     "3264788b29dfb28258862be28a34804a7c326f2b095ca40f0fd7f668b5446b30"),
    ("spot", {"model": "mixtral", "gpu": ["a40"]},
     "74039fc53e32bdab72ad1569c1067d6ab6b0bec5801a58511b6e9a1262c81025"),
    ("cluster", {"model": "blackmamba", "deadline_hours": 48},
     "407c71f9cec84f65298e8c859747ffa3d570abd287478623780d04d9ce37ce9f"),
    ("spot", {"model": "blackmamba", "provider": ["cudo"],
              "checkpoint_minutes": [30], "mtbp_hours": 12},
     "a8ba1fd0c469658668cd76a1592e29749005de1499d8453076c82020d51375a0"),
    ("cluster", {"model": "mixtral", "gpu": ["a40"], "deadline_hours": 24},
     "dd9997b1e8dbc6ce508c97d696b49a6ba568c5ac1eb1960791cae18c6f24f9ff"),
    ("spot", {"model": "mixtral", "gpu": ["a40"],
              "checkpoint_minutes": [15, 30, 60], "deadline_hours": 24},
     "0de6f23c7a656c3899e458beeab57a7c9fd6809cb60c4fa944d83b3099a13712"),
    ("cluster", {"model": "blackmamba", "provider": ["runpod"],
                 "density": "sparse", "budget_dollars": 50},
     "5798d5a64a8e192632c7a11e20f581a50a22abb1ff828d102cee50c9ec1cb19e"),
    ("cluster", {"model": "mixtral", "parallelism": "auto", "grad_accum": [1, 2, 4]},
     "6361587e0f6a5b7866dbbb2ff069f4bb2c9b5ba8f252bf13d6e8674454e9890d"),
    ("spot", {"model": "blackmamba", "deadline_hours": 48},
     "2d1980e895ac3108b659e02cb774931191f8eb75d318754436ef27afde1c88cc"),
    ("spot", {"model": "mixtral", "parallelism": "auto", "grad_accum": [1, 2, 4]},
     "ca9800dd2e9ab351768d0eb16bb2908bd0a7e844680307d35156c97cdf8add14"),
]

#: (kind, body, equivalent argv) for requests both surfaces accept.
VALID = [
    # The benchmark's pool, in the same order as POOL_DIGESTS.
    ("cluster", {"model": "mixtral", "gpu": ["a40"]},
     ["--model", "mixtral", "--gpu", "a40"]),
    ("spot", {"model": "mixtral", "gpu": ["a40"]},
     ["--model", "mixtral", "--gpu", "a40"]),
    ("cluster", {"model": "blackmamba", "deadline_hours": 48},
     ["--model", "blackmamba", "--deadline-hours", "48"]),
    ("spot", {"model": "blackmamba", "provider": ["cudo"],
              "checkpoint_minutes": [30], "mtbp_hours": 12},
     ["--model", "blackmamba", "--provider", "cudo", "--checkpoint-minutes", "30",
      "--mtbp-hours", "12"]),
    ("cluster", {"model": "mixtral", "gpu": ["a40"], "deadline_hours": 24},
     ["--model", "mixtral", "--gpu", "a40", "--deadline-hours", "24"]),
    ("spot", {"model": "mixtral", "gpu": ["a40"],
              "checkpoint_minutes": [15, 30, 60], "deadline_hours": 24},
     ["--model", "mixtral", "--gpu", "a40", "--checkpoint-minutes", "15,30,60",
      "--deadline-hours", "24"]),
    ("cluster", {"model": "blackmamba", "provider": ["runpod"],
                 "density": "sparse", "budget_dollars": 50},
     ["--model", "blackmamba", "--provider", "runpod", "--density", "sparse",
      "--budget", "50"]),
    ("cluster", {"model": "mixtral", "parallelism": "auto", "grad_accum": [1, 2, 4]},
     ["--model", "mixtral", "--parallelism", "auto", "--grad-accum", "1,2,4"]),
    ("spot", {"model": "blackmamba", "deadline_hours": 48},
     ["--model", "blackmamba", "--deadline-hours", "48"]),
    ("spot", {"model": "mixtral", "parallelism": "auto", "grad_accum": [1, 2, 4]},
     ["--model", "mixtral", "--parallelism", "auto", "--grad-accum", "1", "--grad-accum", "2,4"]),
    # Duplicate entries collapse after name resolution, on both surfaces.
    ("cluster", {"model": "mixtral", "gpu": ["a40", "A40"]},
     ["--model", "mixtral", "--gpu", "a40", "--gpu", "A40"]),
    ("cluster", {"model": "mixtral", "gpu": "a40", "batch_size": [2, 2]},
     ["--model", "mixtral", "--gpu", "a40", "--batch-size", "2", "--batch-size", "2"]),
    # Scalars, lists and comma-separated flag values are one form.
    ("cluster", {"model": "mixtral", "gpu": ["a40", "h100"], "num_gpus": [1, 2],
                 "interconnect": "nvlink", "density": "sparse"},
     ["--model", "mixtral", "--gpu", "a40,h100", "--num-gpus", "1,2",
      "--interconnect", "nvlink", "--density", "sparse"]),
    # A dataset the plan never reads may be any name.
    ("cluster", {"model": "mixtral", "gpu": ["a40"], "dataset": "alpaca",
                 "seq_len": 128, "num_queries": 1000},
     ["--model", "mixtral", "--gpu", "a40", "--dataset", "alpaca", "--seq-len", "128",
      "--num-queries", "1000"]),
    ("spot", {"model": "mixtral", "gpu": ["a40"], "num_gpus": 2, "confidence": 1,
              "mtbp_hours": 6.5, "risk_mode": "both", "trials": 64, "seed": 7},
     ["--model", "mixtral", "--gpu", "a40", "--num-gpus", "2", "--confidence", "1",
      "--mtbp-hours", "6.5", "--risk-mode", "both", "--trials", "64", "--seed", "7"]),
]

#: (kind, body, equivalent argv, the field both rejections must name).
INVALID = [
    ("cluster", {"model": "mixtral", "epochs": 0}, ["--epochs", "0"], "epochs"),
    ("cluster", {"model": "mixtral", "batch_size": [0]}, ["--batch-size", "0"], "batch_size"),
    ("cluster", {"model": "mixtral", "deadline_hours": -1},
     ["--deadline-hours", "-1"], "deadline_hours"),
    ("cluster", {"model": "mixtral", "num_queries": 0}, ["--num-queries", "0"], "num_queries"),
    ("cluster", {"model": "mixtral", "budget_dollars": math.nan},
     ["--budget", "nan"], "budget_dollars"),
    ("cluster", {"model": "mixtral", "seq_len": -5}, ["--seq-len", "-5"], "seq_len"),
    ("cluster", {"model": "mixtral", "dataset": "alpaca"}, ["--dataset", "alpaca"], "dataset"),
    ("cluster", {"model": "mixtral", "dataset": "alpaca", "seq_len": 128},
     ["--dataset", "alpaca", "--seq-len", "128"], "dataset"),
    # Integer fields reject non-integral numbers instead of truncating.
    ("cluster", {"model": "mixtral", "num_gpus": [2.7]}, ["--num-gpus", "2.7"], "num_gpus"),
    ("cluster", {"model": "mixtral", "grad_accum": 1.5}, ["--grad-accum", "1.5"], "grad_accum"),
    ("cluster", {"model": "mixtral", "batch_size": [2, 2.7]},
     ["--batch-size", "2,2.7"], "batch_size"),
    ("cluster", {"model": "mixtral", "max_tp": 2.7}, ["--max-tp", "2.7"], "max_tp"),
    ("cluster", {"model": "mixtral", "epochs": 2.7}, ["--epochs", "2.7"], "epochs"),
    ("cluster", {"model": "mixtral", "num_queries": 2.7},
     ["--num-queries", "2.7"], "num_queries"),
    ("cluster", {"model": "mixtral", "seq_len": 2.7}, ["--seq-len", "2.7"], "seq_len"),
    ("spot", {"model": "mixtral", "trials": 2.7}, ["--trials", "2.7"], "trials"),
    # Names, choices, bounds and cross-field rules.
    ("cluster", {"model": "gpt2"}, [], "model"),
    ("cluster", {"model": "mixtral", "gpu": "a100"}, ["--gpu", "a100"], "gpu"),
    ("cluster", {"model": "mixtral", "gpu": []}, ["--gpu", ","], "gpu"),
    ("cluster", {"model": "mixtral", "interconnect": ["nvlink", "carrier-pigeon"]},
     ["--interconnect", "nvlink,carrier-pigeon"], "interconnect"),
    ("cluster", {"model": "mixtral", "density": "extra"}, ["--density", "extra"], "density"),
    ("cluster", {"model": "mixtral", "parallelism": "tp", "max_tp": 1},
     ["--parallelism", "tp", "--max-tp", "1"], "max_tp"),
    ("spot", {"model": "mixtral", "confidence": 1.5}, ["--confidence", "1.5"], "confidence"),
    ("spot", {"model": "mixtral", "mtbp_hours": 0}, ["--mtbp-hours", "0"], "mtbp_hours"),
    ("spot", {"model": "mixtral", "checkpoint_minutes": [30, 0]},
     ["--checkpoint-minutes", "30", "--checkpoint-minutes", "0"], "checkpoint_minutes"),
    ("spot", {"model": "mixtral", "risk_mode": "exact"}, ["--risk-mode", "exact"], "risk_mode"),
    ("spot", {"model": "mixtral", "spot": "maybe"}, ["--spot", "maybe"], "spot"),
    ("spot", {"model": "mixtral", "seed": "x"}, ["--seed", "x"], "seed"),
]


@pytest.fixture(scope="module")
def service():
    return PlanningService()


def canonical(plan) -> str:
    return json.dumps(plan, sort_keys=True, separators=(",", ":"))


def cli_plan(kind, argv, capsys):
    assert MAINS[kind](argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


def _row_id(row):
    return f"{row[0]}-{json.dumps(row[1], sort_keys=True)}"


class TestParity:
    @pytest.mark.parametrize("kind,body,argv", VALID, ids=[_row_id(r) for r in VALID])
    def test_valid_requests_plan_identically(self, service, capsys, kind, body, argv):
        served = json.loads(service.plan(kind, json.loads(json.dumps(body))))["plan"]
        assert canonical(cli_plan(kind, argv, capsys)) == canonical(served)

    @pytest.mark.parametrize("kind,body,argv,field", INVALID,
                             ids=[_row_id(r) for r in INVALID])
    def test_invalid_requests_are_rejected_alike(self, service, capsys, kind, body, argv, field):
        with pytest.raises(RequestError) as excinfo:
            service.plan(kind, body)
        assert excinfo.value.status == 400
        assert excinfo.value.field == field
        assert repr(field) in str(excinfo.value)
        with pytest.raises(SystemExit) as exit_info:
            MAINS[kind](["--model", body["model"]] + argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert FIELD[field].flag in err.strip().splitlines()[-1]

    def test_duplicates_plan_once(self, service):
        def candidates(body):
            return json.loads(service.plan("cluster", body))["plan"]["num_candidates"]

        assert candidates({"model": "mixtral", "gpu": ["a40", "A40"]}) == 32
        assert candidates({"model": "mixtral", "gpu": "a40", "batch_size": [2, 2]}) == \
            candidates({"model": "mixtral", "gpu": "a40", "batch_size": 2})

    @pytest.mark.parametrize("field", ["num_gpus", "epochs", "seed", "deadline_hours"])
    def test_booleans_are_not_numbers(self, field):
        with pytest.raises(RequestError) as excinfo:
            PlanRequest.from_json("spot", {"model": "mixtral", field: True})
        assert excinfo.value.field == field

    def test_unset_means_default_only_where_the_default_is_unset(self):
        request = normalize_cluster_request({"model": "mixtral", "gpu": None, "seq_len": None})
        assert request["gpu"] is None and request["seq_len"] is None
        with pytest.raises(RequestError):
            normalize_cluster_request({"model": "mixtral", "epochs": None})


class TestCanonicalForm:
    @pytest.mark.parametrize("kind,body,digest", POOL_DIGESTS,
                             ids=[_row_id(r) for r in POOL_DIGESTS])
    def test_pool_digests_are_pinned(self, kind, body, digest):
        request = NORMALIZE[kind](json.loads(json.dumps(body)))
        assert request_digest(kind, request, DEFAULT_CATALOG.digest()) == digest

    def test_canonical_lists_every_field_in_table_order(self):
        for kind, fields in KINDS.items():
            request = PlanRequest.from_json(kind, {"model": "mixtral"}).canonical()
            assert list(request) == [field.name for field in fields]
        assert len(KINDS["cluster"]) == 16 and len(KINDS["spot"]) == 23

    def test_cli_and_json_give_equal_requests(self):
        for kind, body, argv in VALID:
            from_json = PlanRequest.from_json(kind, json.loads(json.dumps(body)))
            from_args, _ = PlanRequest.from_args(kind, argv)
            assert from_args == from_json, body

    def test_cli_dest_names_are_stable(self):
        """Run manifests record the argparse namespace, so its names are
        part of the CLI contract."""
        dests = {action.dest for action in build_parser("spot")._actions} - {"help"}
        assert dests == {
            "model", "dataset", "gpu", "provider", "num_gpus", "interconnect",
            "density", "batch_size", "parallelism", "max_tp", "grad_accum",
            "epochs", "num_queries", "seq_len", "deadline_hours", "budget_dollars",
            "spot", "mtbp_hours", "checkpoint_minutes", "confidence", "risk_mode",
            "trials", "seed", "cache_dir", "telemetry",
            "telemetry_out", "run_store", "top", "as_json",
        }

    def test_service_reexports_the_model_error(self):
        assert ServiceRequestError is RequestError


def _run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter on this checkout's package,
    with no trace store or run store from the environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_RUN_STORE", None)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_plan_clis_do_not_import_the_service():
    _run_fresh(
        "import repro.cluster.plan, repro.spot.plan, sys; "
        "assert 'http.server' not in sys.modules; "
        "assert not any(m.startswith('repro.service') for m in sys.modules)"
    )


#: Modules planning never needs: scipy serves only the Eq. 1/Eq. 2
#: fits, the rest are the training substrate.
NOT_FOR_PLANNING = (
    "scipy", "repro.nn", "repro.tensor", "repro.quant", "repro.training",
    "repro.models.blackmamba", "repro.models.mixtral",
    "repro.data.dataloader", "repro.data.datasets",
)

_ASSERT_NOT_LOADED = (
    f"loaded = [m for m in {NOT_FOR_PLANNING!r} if m in sys.modules]; "
    "assert not loaded, loaded"
)


def test_planning_imports_only_planning_code():
    _run_fresh(
        "import repro.cluster.plan, repro.spot.plan, repro.service.serve, sys; "
        + _ASSERT_NOT_LOADED
    )


def test_a_cluster_and_an_analytic_spot_plan_leave_scipy_unimported():
    _run_fresh(
        "import contextlib, io, sys\n"
        "from repro.cluster.plan import main as cluster_main\n"
        "from repro.spot.plan import main as spot_main\n"
        "argv = ['--model', 'blackmamba', '--gpu', 'a40', '--provider', 'cudo', '--json']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cluster_main(argv) == 0\n"
        "    assert spot_main(argv + ['--risk-mode', 'analytic']) == 0\n"
        + _ASSERT_NOT_LOADED
    )


@pytest.mark.parametrize("package", ["repro.models", "repro.data"])
def test_package_exports_resolve_to_their_defining_submodules(package):
    module = importlib.import_module(package)
    submodules = [
        importlib.import_module(f"{package}.{info.name}")
        for info in pkgutil.iter_modules(module.__path__)
    ]
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        value = getattr(module, name)
        home = getattr(value, "__module__", None)
        if callable(value):
            assert home.startswith(package + "."), name
            assert getattr(sys.modules[home], name) is value, name
        holders = [sub for sub in submodules if name in vars(sub)]
        assert holders, name
        assert all(vars(sub)[name] is value for sub in holders), name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
