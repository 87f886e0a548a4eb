import json
import random
import re
from pathlib import Path

import pytest

from conftest import build_stack
from metalforge.api import ApiServer
from metalforge.bench import SCENARIOS, BenchSpec, run_bench
from metalforge.cli import main
from metalforge.orchestrator import Orchestrator

BS = 4096


@pytest.fixture
def root(tmp_path):
    """A stack with nodes and an uploaded image, closed again so the CLI can
    reopen it in local mode."""
    stack = build_stack(tmp_path / "root", nodes=3)
    stack.images.import_image("t1", "base", random.Random(0).randbytes(16 * BS))
    stack.close()
    return str(tmp_path / "root")


def run_cli(root, *argv):
    return main(["--api", root, *argv])


class TestCommands:
    def test_provision_deprovision_cycle(self, root, capsys):
        assert run_cli(root, "--tenant", "t1", "provision", "--image", "base") == 0
        out = capsys.readouterr().out
        assert "state=ready" in out and "node-001" in out

        assert run_cli(root, "--tenant", "t1", "traffic", "node-001") == 0
        assert "read=0B/0ops" in capsys.readouterr().out

        assert run_cli(root, "--tenant", "t1", "deprovision", "node-001",
                       "--keep-image") == 0
        capsys.readouterr()
        assert run_cli(root, "--tenant", "t1", "image", "list") == 0
        out = capsys.readouterr().out
        assert "node-001-disk-1" in out  # retained image visible

    def test_json_output(self, root, capsys):
        assert run_cli(root, "--tenant", "t1", "--json", "image", "list") == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in payload["images"]] == ["base"]

    def test_error_exit_code_and_message(self, root, capsys):
        assert run_cli(root, "--tenant", "t1", "deprovision", "node-042") == 1
        err = capsys.readouterr().err
        assert "error NotFound" in err

    def test_upload_download_round_trip(self, root, tmp_path, capsys):
        payload = random.Random(1).randbytes(3 * BS)
        src = tmp_path / "in.img"
        src.write_bytes(payload)
        assert run_cli(root, "--tenant", "t1", "image", "upload", "disk", str(src)) == 0
        dst = tmp_path / "out.img"
        assert run_cli(root, "--tenant", "t1", "image", "download", "disk", str(dst)) == 0
        assert dst.read_bytes()[: len(payload)] == payload

    def test_share_and_rename(self, root, capsys):
        assert run_cli(root, "--tenant", "t1", "image", "share", "base", "t2") == 0
        capsys.readouterr()
        assert run_cli(root, "--tenant", "t2", "image", "list") == 0
        assert "base" in capsys.readouterr().out
        assert run_cli(root, "--tenant", "t1", "image", "rename", "base", "rhel71") == 0
        capsys.readouterr()
        assert run_cli(root, "--tenant", "t1", "image", "list") == 0
        assert "rhel71" in capsys.readouterr().out

    def test_node_list(self, root, capsys):
        assert run_cli(root, "--tenant", "t1", "node", "list") == 0
        out = capsys.readouterr().out
        assert out.count("free") == 3


    def test_node_register(self, root, capsys):
        assert run_cli(root, "node", "register", "02:00:00:00:99:01") == 0
        assert capsys.readouterr().out == "registered node-004\n"
        assert run_cli(root, "--tenant", "t1", "node", "list") == 0
        assert "node-004  mac=02:00:00:00:99:01  free" in capsys.readouterr().out


def test_every_route_has_one_command():
    from metalforge.api import ROUTES
    from metalforge.cli import COMMANDS

    commands = [(method, path) for _, _, method, path, _, _ in COMMANDS]
    for method, path, *_ in ROUTES:
        path = "/v1" + re.sub(r"<(\w+)>", r"{\1}", path)
        assert commands.count((method, path)) == 1, (method, path)
    assert len(commands) == len(ROUTES)


class TestOutput:
    """Human output of every client command, pinned byte for byte."""

    def test_human_output_is_pinned(self, root, tmp_path, capsys):
        src = tmp_path / "in.img"
        src.write_bytes(random.Random(1).randbytes(3 * BS + 5))
        t1 = ["--tenant", "t1"]

        def check(argv, expected):
            assert run_cli(root, *argv) == 0, argv
            assert capsys.readouterr().out == expected, argv

        check([*t1, "image", "upload", "disk", str(src)],
              "image img-000002 name=disk size=16384\n")
        check([*t1, "image", "list"],
              "img-000001  base  kind=golden size=65536 children=0\n"
              "img-000002  disk  kind=golden size=16384 children=0\n")
        check([*t1, "image", "share", "base", "t2"], "shared\n")
        check([*t1, "image", "rename", "disk", "disk2"], "renamed\n")
        check([*t1, "image", "download", "disk2", str(tmp_path / "out.img")],
              f"wrote {tmp_path / 'out.img'}\n")
        check([*t1, "--json", "image", "download", "disk2", str(tmp_path / "out2.img")],
              f'{{\n  "name": "disk2",\n  "path": "{tmp_path / "out2.img"}"\n}}\n')
        check([*t1, "node", "list"],
              "node-001  mac=02:00:00:00:00:00  free  health=ok  tenant=-\n"
              "node-002  mac=02:00:00:00:00:01  free  health=ok  tenant=-\n"
              "node-003  mac=02:00:00:00:00:02  free  health=ok  tenant=-\n")
        target = "iqn.2025-01.org.metalforge:t1:img-00000"
        check([*t1, "provision", "--image", "base"],
              f"node node-001 state=ready clone=img-000003 target={target}3\n")
        check(["--tenant", "t2", "node", "list"],
              "node-001  mac=02:00:00:00:00:00  allocated  health=ok  tenant=-\n"
              "node-002  mac=02:00:00:00:00:01  free  health=ok  tenant=-\n"
              "node-003  mac=02:00:00:00:00:02  free  health=ok  tenant=-\n")
        check([*t1, "traffic", "node-001"], "read=0B/0ops write=0B/0ops\n")
        check([*t1, "snapshot", "node-001", "cp"], "snapshot image img-000003\n")
        check([*t1, "provisions"],
              f"node-001  state=ready  clone=img-000004 target={target}3\n")
        svc = Orchestrator.open(root)
        svc.note_node_failed("node-001")
        svc.close()
        check([*t1, "recover", "node-001"], "recovered onto node-002 state=ready\n")
        check([*t1, "provisions"],
              f"node-002  state=ready  clone=img-000004 target={target}4\n")
        check([*t1, "deprovision", "node-002", "--keep-image"], "deprovisioned node-002\n")
        check([*t1, "provisions"], "")

    def test_help_lists_every_command(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            main(["--help"])
        commands = ("{image,node,provision,deprovision,snapshot,recover,traffic,"
                    "provisions,bench,serve}")
        assert capsys.readouterr().out == f"""\
usage: metalforge [-h] [--api API] [--tenant TENANT] [--token TOKEN] [--json]
                  {commands}
                  ...

diskless bare-metal provisioning client

positional arguments:
  {commands}
    image               image management
    node                node pool
    provision           stand a node up from an image
    deprovision         tear a node down
    snapshot            freeze a node's disk as an image
    recover             re-export a failed node's disk
    traffic             gateway counters for a node
    provisions          list live provision records
    bench               run a benchmark scenario
    serve               serve a stack over HTTP

options:
  -h, --help            show this help message and exit
  --api API             http(s) URL of a served stack, or a persistence root
                        to open in-process
  --tenant TENANT       tenant id for this call
  --token TOKEN         API token
  --json                machine-readable output
"""


class TestDifferential:
    """Every CLI command's effect equals the corresponding direct API call."""

    OPS = [
        ("provision", lambda api: api.handle(
            "PUT", "/v1/provision", {"tenant": "t1", "image": "base"}),
         ["--tenant", "t1", "provision", "--image", "base"]),
        ("snapshot", lambda api: api.handle(
            "PUT", "/v1/snapshot/node-001", {"tenant": "t1", "name": "cp"}),
         ["--tenant", "t1", "snapshot", "node-001", "cp"]),
        ("deprovision", lambda api: api.handle(
            "DELETE", "/v1/provision/node-001", {"tenant": "t1", "keep_image": True}),
         ["--tenant", "t1", "deprovision", "node-001", "--keep-image"]),
    ]

    def _state(self, stack):
        return {
            "provisions": stack.list_provisions("t1"),
            "images": [r.to_public() for r in stack.images.list_images("t1")],
            "pool": stack.pool.counts(),
            "targets": [(t.name, t.image, t.tenant, t.allowed_initiators, t.counters)
                        for t in stack.gateway.targets()],
        }

    def test_cli_effects_equal_api_effects(self, tmp_path):
        api_stack = build_stack(tmp_path / "api" / "root", nodes=3)
        api_stack.images.import_image("t1", "base", random.Random(0).randbytes(8 * BS))
        api = ApiServer(api_stack)

        cli_root = tmp_path / "cli" / "root"
        cli_stack = build_stack(cli_root, nodes=3)
        cli_stack.images.import_image("t1", "base", random.Random(0).randbytes(8 * BS))
        cli_stack.close()

        for name, api_call, argv in self.OPS:
            status, _ = api_call(api)
            assert status == 200, f"{name} API call failed"
            assert main(["--api", str(cli_root), *argv]) == 0, f"{name} CLI call failed"

            from metalforge.orchestrator import Orchestrator
            cli_view = Orchestrator.open(cli_root)
            try:
                assert self._state(cli_view) == self._state(api_stack), \
                    f"divergence after {name}"
            finally:
                cli_view.close()
        api_stack.close()


class TestHttpMode:
    def test_cli_talks_to_served_stack(self, tmp_path, capsys):
        from metalforge.api import serve_background

        stack = build_stack(tmp_path / "root", nodes=1,
                            tenants={"t1": "tok-1"})
        stack.images.import_image("t1", "base", b"\x01" * BS)
        server, port = serve_background(ApiServer(stack))
        try:
            code = main(["--api", f"http://127.0.0.1:{port}", "--token", "tok-1",
                         "image", "list"])
            assert code == 0
            assert "base" in capsys.readouterr().out
            code = main(["--api", f"http://127.0.0.1:{port}", "--token", "wrong",
                         "image", "list"])
            assert code == 1
            assert "AccessDenied" in capsys.readouterr().err
        finally:
            server.shutdown()
            server.server_close()
            stack.close()


class _NoServer:
    """Stands in for the HTTP server: a serve that got this far returns."""

    def serve_forever(self):
        pass

    def shutdown(self):
        pass

    def server_close(self):
        pass


class TestBusyRoot:
    @pytest.mark.parametrize("argv", [["--tenant", "t1", "--api", "{root}", "provisions"],
                                      ["serve", "--root", "{root}"]],
                             ids=["local", "serve"])
    def test_busy_root_is_one_line_naming_the_api(self, root, argv, capsys, monkeypatch):
        monkeypatch.setattr("metalforge.cli.serve_http", lambda api, host, port: _NoServer())
        holder = Orchestrator.open(root)
        try:
            code = main([arg.format(root=root) for arg in argv])
        finally:
            holder.close()
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error RootBusy: ")
        assert "--api http://" in err


class TestBench:
    def test_csv_bit_identical_across_runs(self, tmp_path):
        spec = BenchSpec("traffic_curves", {"image_mib": 32, "reps": 3}, seed=7)
        first = run_bench(spec)
        second = run_bench(spec)
        assert first.csv_text == second.csv_text
        assert first.csv_text.splitlines()[0] == \
            "rep,read_bytes,write_bytes,cum_read_bytes,cum_write_bytes"

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_default_csv_matches_golden(self, scenario):
        # the paper reproduction: seed 0, default parameters, pinned byte for byte
        golden = Path(__file__).parent / "golden" / f"bench-{scenario}.csv"
        assert run_bench(BenchSpec(scenario)).csv_text.encode() == golden.read_bytes()

    def test_scaling_csv_header_fixed(self, tmp_path):
        result = run_bench(BenchSpec("provision_scaling",
                                     {"n_values": [1, 2], "image_mib": 16}))
        lines = result.csv_text.splitlines()
        assert lines[0] == "n,total_ms,overhead_ms"
        assert len(lines) == 3

    def test_dirty_root_rejected(self, tmp_path):
        dirty = tmp_path / "dirty"
        dirty.mkdir()
        (dirty / "leftover").write_text("x")
        from metalforge.errors import DirtyEnvironment
        with pytest.raises(DirtyEnvironment):
            run_bench(BenchSpec("traffic_curves", {"root": str(dirty)}))

    def test_unknown_scenario_rejected(self):
        from metalforge.errors import InvalidRequest
        with pytest.raises(InvalidRequest):
            run_bench(BenchSpec("make_coffee"))

    def test_cli_bench_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "result.csv"
        code = main(["bench", "traffic_curves", "--seed", "3", "--out", str(out),
                     "--param", "image_mib=16", "--param", "reps=2"])
        assert code == 0
        assert out.read_text().startswith("rep,read_bytes")
        assert "traffic_curves:" in capsys.readouterr().out
