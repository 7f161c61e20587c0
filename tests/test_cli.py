import json

import numpy as np
import pytest

from spherelets.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from spherelets.datasets import load_csv
from spherelets.exceptions import ParseError


def run(*argv):
    return main(list(argv))


def test_generate_fit_project_pipeline(tmp_path):
    data = tmp_path / "euler.csv"
    model = tmp_path / "model.json"
    out = tmp_path / "proj.csv"
    assert run("generate", "--dataset", "euler", "--n", "400", "--seed", "0",
               "--out", str(data)) == EXIT_OK
    assert run("fit", "--input", str(data), "--d", "1", "--eps", "1e-6",
               "--method", "spca", "--out", str(model)) == EXIT_OK
    assert run("project", "--model", str(model), "--input", str(data),
               "--out", str(out), "--report-mse") == EXIT_OK
    X = load_csv(str(data))
    Y = load_csv(str(out))
    assert Y.shape == X.shape
    assert np.mean(np.sum((X - Y) ** 2, axis=1)) < 1e-4


def test_generate_clean_out_and_noise(tmp_path):
    noisy = tmp_path / "noisy.csv"
    clean = tmp_path / "clean.csv"
    assert run("generate", "--dataset", "spiral", "--n", "100", "--noise", "0.2",
               "--seed", "1", "--out", str(noisy), "--clean-out", str(clean)) == EXIT_OK
    a, b = load_csv(str(noisy)), load_csv(str(clean))
    assert a.shape == b.shape == (100, 2)
    assert not np.array_equal(a, b)


def test_generate_enneper_and_sphere(tmp_path):
    for name, cols in (("enneper", 3), ("sphere", 3)):
        out = tmp_path / f"{name}.csv"
        assert run("generate", "--dataset", name, "--n", "50", "--out", str(out)) == EXIT_OK
        assert load_csv(str(out)).shape == (50, cols)


def test_provenance_header_written(tmp_path):
    out = tmp_path / "d.csv"
    run("generate", "--dataset", "euler", "--n", "20", "--seed", "7", "--out", str(out))
    head = out.read_text().splitlines()[:3]
    assert head[0].startswith("# command: spherelets generate")
    assert head[1] == "# seed: 7"
    assert head[2].startswith("# version:")


def test_generate_rerun_identical_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("generate", "--dataset", "euler", "--n", "50", "--seed", "3", "--out", str(a))
    run("generate", "--dataset", "euler", "--n", "50", "--seed", "3", "--out", str(b))
    assert a.read_text().replace(str(a), "X") == b.read_text().replace(str(b), "X")


def test_denoise_subcommand(tmp_path):
    data = tmp_path / "noisy.csv"
    out = tmp_path / "clean.csv"
    run("generate", "--dataset", "spiral", "--n", "200", "--noise", "0.2",
        "--seed", "2", "--out", str(data))
    assert run("denoise", "--input", str(data), "--method", "smbms", "--k", "20",
               "--sigma", "1.0", "--iters", "1", "--d", "1", "--out", str(out)) == EXIT_OK
    assert load_csv(str(out)).shape == (200, 2)


def test_embed_subcommand(tmp_path):
    data = tmp_path / "pts.csv"
    out = tmp_path / "emb.csv"
    log = tmp_path / "log.csv"
    run("generate", "--dataset", "sphere", "--n", "60", "--seed", "4", "--out", str(data))
    assert run("embed", "--input", str(data), "--mode", "spherical", "--d", "1",
               "--m", "2", "--k", "10", "--sigma", "5.0", "--iters", "120",
               "--lr", "50", "--seed", "0", "--out", str(out), "--log", str(log)) == EXIT_OK
    Y = load_csv(str(out))
    assert Y.shape == (60, 2)
    trace = load_csv(str(log))
    assert trace.shape[1] == 2
    kls = trace[:, 1]
    assert np.all(np.diff(kls) <= 1e-15)


def test_bench_subcommand(tmp_path):
    out = tmp_path / "bench.csv"
    assert run("bench", "--dataset", "euler:ntrain=300,ntest=300", "--d", "1",
               "--eps-grid", "1e-3,1e-5", "--methods", "spca,pca",
               "--seed", "0", "--out", str(out)) == EXIT_OK
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "method,eps,pieces,train_mse,test_mse,wall_time"
    assert len(lines) == 5  # header + 2 eps x 2 methods


def test_rate_subcommand(tmp_path):
    out = tmp_path / "rate.csv"
    assert run("rate", "--alpha-grid", "0.05,0.11,0.23,0.5",
               "--methods", "spca,pca", "--out", str(out)) == EXIT_OK
    text = out.read_text()
    assert "# slope spca:" in text
    assert "method,alpha,segment,mse" in text


def test_exit_usage_on_bad_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("generate", "--dataset", "mobius", "--n", "10", "--out", str(tmp_path / "x.csv"))
    assert exc.value.code == EXIT_USAGE


def test_exit_usage_on_parameter_error(tmp_path):
    data = tmp_path / "d.csv"
    run("generate", "--dataset", "euler", "--n", "30", "--out", str(data))
    code = run("denoise", "--input", str(data), "--method", "gbms", "--k", "0",
               "--sigma", "1.0", "--out", str(tmp_path / "o.csv"))
    assert code == EXIT_USAGE


def test_exit_data_on_missing_file(tmp_path):
    assert run("fit", "--input", str(tmp_path / "nope.csv"), "--d", "1",
               "--eps", "1e-4", "--out", str(tmp_path / "m.json")) == EXIT_DATA


def test_exit_data_on_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,abc\n")
    assert run("fit", "--input", str(bad), "--d", "1", "--eps", "1e-4",
               "--out", str(tmp_path / "m.json")) == EXIT_DATA


def test_exit_data_on_non_finite_csv(tmp_path, capsys):
    # a NaN used to reach the SVD and exit 4 ("SVD did not converge")
    bad = tmp_path / "nan.csv"
    bad.write_text("".join(f"{np.cos(t)},{np.sin(t)}\n" for t in np.linspace(0, 3, 40)) + "nan,0\n")
    assert run("fit", "--input", str(bad), "--d", "1", "--eps", "1e-4",
               "--out", str(tmp_path / "m.json")) == EXIT_DATA
    assert "row 41, column 1: not a finite number" in capsys.readouterr().err


def test_exit_numeric_on_singular_projection(tmp_path):
    model = {
        "version": 1, "d": 1, "D": 2, "fitter": "spca",
        "tree": {"leaf": 0, "members": []},
        "leaves": [{"id": 0, "kind": "sphere", "mu": [0.0, 0.0],
                    "frame": [[1.0, 0.0], [0.0, 1.0]],
                    "center": [0.0, 0.0], "radius": 1.0}],
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(model))
    data = tmp_path / "center.csv"
    data.write_text("0,0\n")  # projects onto the sphere center
    assert run("project", "--model", str(mpath), "--input", str(data),
               "--out", str(tmp_path / "p.csv")) == EXIT_NUMERIC


def _two_sphere_model(radius=1.0):
    # x > 0 goes to the circle around (3, 0), the rest to the one around (-3, 0)
    def sphere(cid, cx):
        return {"id": cid, "kind": "sphere", "mu": [cx, 0.0], "frame": [[1.0, 0.0], [0.0, 1.0]],
                "center": [cx, 0.0], "radius": radius}
    return {
        "version": 1, "d": 1, "D": 2, "fitter": "spca",
        "tree": {"split": {"mu": [0.0, 0.0], "direction": [1.0, 0.0]},
                 "left": {"leaf": 0, "members": []}, "right": {"leaf": 1, "members": []}},
        "leaves": [sphere(0, 3.0), sphere(1, -3.0)],
    }


def test_singular_projection_names_row_of_input(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(_two_sphere_model()))
    data = tmp_path / "batch.csv"
    data.write_text("4,0\n3,2\n5,1\n2,0.5\n3.5,-1\n-3,0\n-1,0\n")  # row 5: a center
    assert run("project", "--model", str(mpath), "--input", str(data),
               "--out", str(tmp_path / "p.csv")) == EXIT_NUMERIC
    assert "row 5 projects onto the sphere center" in capsys.readouterr().err


def test_exit_data_on_negative_radius_model(tmp_path, capsys):
    # such a model used to load and project points by reflection, exit 0
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(_two_sphere_model(radius=-1.0)))
    data = tmp_path / "x.csv"
    data.write_text("4,0\n")
    assert run("project", "--model", str(mpath), "--input", str(data),
               "--out", str(tmp_path / "p.csv")) == EXIT_DATA
    assert "(leaf 0): sphere radius -1.0 is not finite and positive" in capsys.readouterr().err


def _edited_model(edit):
    obj = _two_sphere_model()
    edit(obj)
    return json.dumps(obj)


def _deeply_nested_model():
    return ('{"version": 1, "d": 1, "D": 2, "fitter": "spca", "leaves": [], "tree": '
            + '{"left": ' * 200_000 + '{"leaf": 0}' + "}" * 200_000 + "}")


HUGE = 10**400  # written as 401 digits, out of float range


@pytest.mark.parametrize("text,message", [
    (lambda: _edited_model(lambda o: o["tree"]["split"].update(mu=[HUGE, 0.0])),
     r"^tree: int too large to convert to float$"),
    (lambda: _edited_model(lambda o: o["leaves"][1].update(mu=[0.0, HUGE])),
     r"^leaves\[1\] \(leaf 1\): int too large to convert to float$"),
    (lambda: _edited_model(lambda o: o["tree"]["right"].update(leaf=float("inf"))),
     r"^tree\.right: cannot convert float infinity to integer$"),
    (lambda: _edited_model(lambda o: o["leaves"][1].update(id=float("inf"))),
     r"^leaves\[1\]: cannot convert float infinity to integer$"),
    (lambda: _edited_model(lambda o: o["tree"]["left"].update(members=[0, HUGE])),
     r"^tree\.left: .*too large"),
    (lambda: _edited_model(lambda o: o.update(D=float("inf"))),
     r"m\.json: D must be an integer >= 1, got inf$"),
    # JSON parsing refuses so long an integer where Python limits int digits
    (lambda: _edited_model(lambda o: o["tree"]["split"].update(mu=["@", 0.0])).replace(
        '"@"', "1" * 5000), r"m\.json: Exceeds the limit|^tree: int too large"),
    (lambda: _edited_model(lambda o: o.update(leaves=5)), r"m\.json: leaves must be a list$"),
    (_deeply_nested_model, r"m\.json: maximum recursion depth exceeded"),
], ids=["split-mu", "piece-mu", "leaf-id", "piece-id", "members", "dimension", "digits",
        "leaves-not-list", "deep-nesting"])
def test_exit_data_on_out_of_range_or_malformed_model(tmp_path, capsys, text, message):
    # each used to escape load as OverflowError, ValueError, TypeError or
    # RecursionError: exit 1 with a traceback
    from spherelets.model import load

    mpath, data = tmp_path / "m.json", tmp_path / "x.csv"
    mpath.write_text(text())
    data.write_text("4,0\n")
    with pytest.raises(ParseError, match=message):
        load(str(mpath))
    assert run("project", "--model", str(mpath), "--input", str(data),
               "--out", str(tmp_path / "p.csv")) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _plane_model(d, frame=None):
    # two plane leaves in R^2 split at x = 0, both d wide unless leaf 5,
    # the second in the file, is given another frame
    good = [[1.0], [0.0]] if d == 1 else [[], []]
    return {"version": 1, "d": d, "D": 2, "fitter": "pca",
            "tree": {"split": {"mu": [0.0, 0.0], "direction": [1.0, 0.0]},
                     "left": {"leaf": 3, "members": []}, "right": {"leaf": 5, "members": []}},
            "leaves": [{"id": 3, "kind": "plane", "mu": [1.0, 0.0], "frame": good},
                       {"id": 5, "kind": "plane", "mu": [-1.0, 0.0], "frame": frame or good}]}


@pytest.mark.parametrize("d,frame,widths", [
    (1, [[], []], "1 or 2"),  # used to load and project every row onto mu
    (0, [[1.0, 0.0], [0.0, 1.0]], "0 or 1"),  # used to project every row onto itself
], ids=["no-columns", "too-wide"])
def test_exit_data_on_plane_frame_fit_never_writes(tmp_path, capsys, d, frame, widths):
    # fit writes a plane min(d, D) wide; earlier versions also wrote the
    # d + 1 wide reduction plane of a degenerate sphere
    from spherelets.model import load

    mpath, data = tmp_path / "m.json", tmp_path / "x.csv"
    data.write_text("4,1\n-4,1\n")
    mpath.write_text(json.dumps(_plane_model(d)))
    assert load(str(mpath)).n_pieces == 2
    mpath.write_text(json.dumps(_plane_model(d, frame)))
    with pytest.raises(ParseError, match=r"^leaves\[1\] \(leaf 5\): frame must be a finite "
                                         rf"2-row matrix, {widths} columns wide"):
        load(str(mpath))
    assert run("project", "--model", str(mpath), "--input", str(data),
               "--out", str(tmp_path / "p.csv")) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_report_mse_projects_each_leaf_once(tmp_path, monkeypatch, capsys):
    # one routing pass, and one stacked kernel call per piece kind and frame
    # width, give both the projections and the printed MSEs
    from collections import Counter

    from spherelets import model as model_mod
    from spherelets.model import load

    data, model, out = tmp_path / "e.csv", tmp_path / "m.json", tmp_path / "p.csv"
    assert run("generate", "--dataset", "euler", "--n", "600", "--seed", "2",
               "--out", str(data)) == EXIT_OK
    assert run("fit", "--input", str(data), "--d", "1", "--eps", "1e-7",
               "--out", str(model)) == EXIT_OK
    fitted, X = load(str(model)), load_csv(str(data))
    expect_proj, (overall, per_cell) = fitted.project_many(X), fitted.mse(X)
    kinds = {(p.degenerate, p.frame.shape[1]) for p in fitted.leaves.values()}
    capsys.readouterr()
    calls = Counter()
    for name in ("leaf_rows", "_sphere_images", "_plane_images"):
        def counting(*args, _name=name, _fn=getattr(model_mod, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(model_mod, name, counting)
    assert run("project", "--model", str(model), "--input", str(data),
               "--out", str(out), "--report-mse") == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    assert len(per_cell) > 3
    assert calls["leaf_rows"] == 1
    assert calls["_sphere_images"] + calls["_plane_images"] == len(kinds)
    assert printed == [f"overall_mse={overall:.17g}"] + [
        f"cell {cid}: mse={per_cell[cid]:.17g}" for cid in sorted(per_cell)]
    assert np.array_equal(load_csv(str(out)), expect_proj)


def test_fit_prints_the_routed_train_mse(tmp_path, monkeypatch, capsys):
    # fit projects each leaf's members instead of routing the training rows
    # again; the printed train_mse is the one routing gives
    from spherelets import model as model_mod
    from spherelets.model import load

    data, model = tmp_path / "e.csv", tmp_path / "m.json"
    assert run("generate", "--dataset", "enneper", "--n", "2000", "--seed", "3",
               "--out", str(data)) == EXIT_OK
    capsys.readouterr()
    with monkeypatch.context() as mp:
        def refuse(*args):
            raise AssertionError("fit routed its training rows")
        mp.setattr(model_mod, "leaf_rows", refuse)
        assert run("fit", "--input", str(data), "--d", "2", "--eps", "1e-5",
                   "--out", str(model)) == EXIT_OK
    fitted = load(str(model))
    train_mse, _ = fitted.mse(load_csv(str(data)))
    assert capsys.readouterr().out == (
        f"pieces={fitted.n_pieces} train_mse={train_mse:.6e} model={model}\n")
    assert fitted.n_pieces > 3


@pytest.mark.parametrize("argv", [
    ["fit", "--d", "1", "--eps", "nan"],
    ["fit", "--d", "1", "--eps", "inf"],
    ["embed", "--d", "1", "--sigma", "1", "--iters", "5", "--lr", "nan"],
    ["denoise", "--method", "smbms", "--k", "10", "--sigma", "nan"],
    ["denoise", "--method", "ltp", "--k", "10", "--sigma", "nan"],
    ["generate", "--dataset", "enneper", "--n", "50", "--noise", "nan"],
    ["generate", "--dataset", "enneper", "--n", "50", "--param-max", "nan"],
    ["generate", "--dataset", "spiral", "--n", "50", "--noise", "inf"],
    ["generate", "--dataset", "euler", "--n", "50", "--noise", "nan"],
    ["generate", "--dataset", "sphere", "--n", "-3"],
    ["generate", "--dataset", "sphere", "--n", "0"],
], ids=["fit-eps-nan", "fit-eps-inf", "embed-lr-nan", "smbms-sigma-nan", "ltp-sigma-nan",
        "enneper-noise-nan", "enneper-param-max-nan", "spiral-noise-inf", "euler-noise-nan",
        "n-negative", "n-zero"])
def test_exit_usage_on_non_finite_or_empty_parameter(tmp_path, capsys, argv):
    # each used to exit 0 with NaN, inf or unchanged output, exit 4, or end
    # in a traceback: NaN passed checks written as x <= 0
    data, out, log = tmp_path / "x.csv", tmp_path / "out", tmp_path / "kl.csv"
    assert run("generate", "--dataset", "euler", "--n", "60", "--out", str(data)) == EXIT_OK
    capsys.readouterr()
    extra = [] if argv[0] == "generate" else ["--input", str(data)]
    extra += ["--log", str(log)] if argv[0] == "embed" else []
    assert run(*argv, *extra, "--out", str(out)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists() and not log.exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--dataset", "spiral", "--n", "50", "--seed", "-1"],
    ["embed", "--d", "1", "--sigma", "1", "--iters", "5", "--seed", "-3"],
    ["bench", "--dataset", "euler", "--d", "1", "--eps-grid", "1e-2,1e-3", "--seed", "-1"],
], ids=["generate", "embed", "bench"])
def test_exit_usage_on_negative_seed(tmp_path, capsys, argv):
    # each used to end in NumPy's "expected non-negative integer" traceback
    data, out, log = tmp_path / "x.csv", tmp_path / "out", tmp_path / "kl.csv"
    assert run("generate", "--dataset", "euler", "--n", "60", "--out", str(data)) == EXIT_OK
    capsys.readouterr()
    extra = ["--input", str(data), "--log", str(log)] if argv[0] == "embed" else []
    assert run(*argv, *extra, "--out", str(out)) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: seed must be >= 0, got {argv[-1]}\n"
    assert not out.exists() and not log.exists()


@pytest.mark.parametrize("text,message", [
    (lambda: _edited_model(lambda o: o.update(d="1")), r"d must be an integer >= 0, got '1'$"),
    (lambda: _edited_model(lambda o: o.update(d=1.9)), r"d must be an integer >= 0, got 1\.9$"),
    (lambda: _edited_model(lambda o: o.update(d=True)), r"d must be an integer >= 0, got True$"),
    (lambda: json.dumps(_plane_model(-1)), r"d must be an integer >= 0, got -1$"),
    (lambda: _edited_model(lambda o: o.update(D=0)), r"D must be an integer >= 1, got 0$"),
    (lambda: _edited_model(lambda o: o.update(fitter=42)),
     r"fitter must be 'spca' or 'pca', got 42$"),
    (lambda: _edited_model(lambda o: o.update(provenance=[1, 2])),
     r"provenance must be an object, got \[1, 2\]$"),
], ids=["d-string", "d-float", "d-bool", "d-negative", "D-zero", "fitter", "provenance"])
def test_exit_data_on_malformed_model_header(tmp_path, capsys, text, message):
    # each used to load, and to project with exit 0
    from spherelets.model import load

    mpath, data = tmp_path / "m.json", tmp_path / "x.csv"
    mpath.write_text(text())
    data.write_text("4,1\n")
    with pytest.raises(ParseError, match=r"m\.json: " + message):
        load(str(mpath))
    assert run("project", "--model", str(mpath), "--input", str(data),
               "--out", str(tmp_path / "p.csv")) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
