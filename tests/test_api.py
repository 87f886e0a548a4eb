import base64
import json
import random
import socket
import urllib.request

import pytest

from conftest import build_stack
from metalforge.api import ApiServer, serve_background
from metalforge.image_store import BlockFile

BS = 4096
TOKENS = {"t1": "secret-1", "t2": "secret-2"}


@pytest.fixture
def api(tmp_path):
    stack = build_stack(tmp_path / "root", nodes=3, tenants=dict(TOKENS),
                        admin_token="admin-secret")
    yield ApiServer(stack)
    stack.close()


def upload(api, token, name, payload):
    return api.handle("POST", "/v1/images", {
        "name": name, "content_b64": base64.b64encode(payload).decode()}, token)


class TestAuth:
    def test_token_resolves_tenant(self, api):
        status, body = upload(api, "secret-1", "img", b"\x01" * BS)
        assert status == 200
        assert body["tenant"] == "t1"

    def test_unknown_token_rejected(self, api):
        status, body = api.handle("GET", "/v1/images", {}, "wrong")
        assert status == 403 and body["code"] == "AccessDenied"

    def test_tenant_claim_must_match_token(self, api):
        status, body = api.handle("GET", "/v1/images", {"tenant": "t2"}, "secret-1")
        assert status == 403

    def test_open_mode_requires_tenant_field(self, tmp_path):
        stack = build_stack(tmp_path / "open", nodes=1)  # no auth table
        api = ApiServer(stack)
        status, body = api.handle("GET", "/v1/images", {})
        assert status == 400 and body["code"] == "InvalidRequest"
        status, body = api.handle("GET", "/v1/images", {"tenant": "t1"})
        assert status == 200
        stack.close()

    def test_admin_required_for_node_registration(self, api):
        status, body = api.handle("POST", "/v1/nodes", {"mac": "02:00:00:00:99:01"},
                                  "secret-1")
        assert status == 403 and body["code"] == "AccessDenied"
        status, body = api.handle("POST", "/v1/nodes", {"mac": "02:00:00:00:99:01"},
                                  "admin-secret")
        assert status == 200
        assert body["node"].startswith("node-")


class TestEndpoints:
    def test_provision_flow(self, api):
        upload(api, "secret-1", "base", random.Random(0).randbytes(8 * BS))
        status, rec = api.handle("PUT", "/v1/provision", {"image": "base"}, "secret-1")
        assert status == 200 and rec["state"] == "ready"

        status, body = api.handle("GET", "/v1/provisions", {}, "secret-1")
        assert [r["node"] for r in body["provisions"]] == [rec["node"]]

        status, body = api.handle("GET", f"/v1/traffic/{rec['node']}", {}, "secret-1")
        assert status == 200 and body["bytes_read"] == 0

        status, body = api.handle("DELETE", f"/v1/provision/{rec['node']}",
                                  {"keep_image": False}, "secret-1")
        assert status == 200 and body == {"ok": True}

    def test_provision_by_image_id_or_name(self, api):
        _, img = upload(api, "secret-1", "base", b"\x01" * BS)
        status, rec = api.handle("PUT", "/v1/provision", {"image": img["id"]}, "secret-1")
        assert status == 200
        status, rec2 = api.handle("PUT", "/v1/provision", {"image": "base"}, "secret-1")
        assert status == 200
        assert rec2["node"] != rec["node"]

    def test_live_disk_refused_as_provision_source(self, api):
        upload(api, "secret-1", "base", b"\x01" * BS)
        _, rec = api.handle("PUT", "/v1/provision", {"image": "base"}, "secret-1")
        disk = api.svc.images.get(rec["clone_image"]).name
        status, body = api.handle("PUT", "/v1/provision", {"image": disk}, "secret-1")
        assert status == 409 and body["code"] == "ImageInUse"
        assert api.svc.verify_invariants() == []

    def test_snapshot_and_recover_endpoints(self, api):
        upload(api, "secret-1", "base", random.Random(1).randbytes(8 * BS))
        _, rec = api.handle("PUT", "/v1/provision", {"image": "base"}, "secret-1")
        status, body = api.handle("PUT", f"/v1/snapshot/{rec['node']}",
                                  {"name": "cp-1"}, "secret-1")
        assert status == 200 and body["image"]

        api.svc.note_node_failed(rec["node"])
        status, body = api.handle("PUT", f"/v1/recover/{rec['node']}", {}, "secret-1")
        assert status == 200 and body["node"] != rec["node"]

    def test_image_management(self, api):
        payload = random.Random(2).randbytes(2 * BS + 17)
        upload(api, "secret-1", "disk", payload)

        status, body = api.handle("GET", "/v1/images/disk/content", {}, "secret-1")
        assert status == 200
        exported = base64.b64decode(body["content_b64"])
        assert exported[: len(payload)] == payload

        status, _ = api.handle("POST", "/v1/images/disk/share", {"grantee": "t2"},
                               "secret-1")
        assert status == 200
        status, body = api.handle("GET", "/v1/images", {}, "secret-2")
        assert [r["name"] for r in body["images"]] == ["disk"]

        status, _ = api.handle("POST", "/v1/images/disk/rename", {"new_name": "root-disk"},
                               "secret-1")
        assert status == 200
        status, body = api.handle("GET", "/v1/images", {}, "secret-1")
        assert [r["name"] for r in body["images"]] == ["root-disk"]

    def test_own_image_name_wins_over_shared_one(self, api):
        _, theirs = upload(api, "secret-2", "base", b"\x02" * BS)
        api.handle("POST", "/v1/images/base/share", {"grantee": "t1"}, "secret-2")
        _, mine = upload(api, "secret-1", "base", b"\x01" * BS)
        status, rec = api.handle("PUT", "/v1/provision", {"image": "base"}, "secret-1")
        assert status == 200 and rec["source_image"] == mine["id"]
        status, _ = api.handle("POST", "/v1/images/base/rename", {"new_name": "mine"},
                               "secret-1")
        assert status == 200
        assert api.svc.images.get(mine["id"]).name == "mine"
        assert api.svc.images.get(theirs["id"]).name == "base"
        # with no image of its own by that name, t1 still reaches the shared one
        status, body = api.handle("GET", "/v1/images/base/content", {}, "secret-1")
        assert status == 200 and base64.b64decode(body["content_b64"]) == b"\x02" * BS

    def test_nodes_listing_masks_other_tenants(self, api):
        upload(api, "secret-1", "base", b"\x01" * BS)
        _, rec = api.handle("PUT", "/v1/provision", {"image": "base"}, "secret-1")
        status, body = api.handle("GET", "/v1/nodes", {}, "secret-2")
        owner = {n["id"]: n["tenant"] for n in body["nodes"]}
        assert owner[rec["node"]] is None


class TestIdempotencyKeys:
    def test_provision_key_of_another_tenant_answers_nothing_of_theirs(self, api):
        upload(api, "secret-1", "base", b"\x01" * BS)
        upload(api, "secret-2", "base", b"\x02" * BS)
        _, first = api.handle("PUT", "/v1/provision",
                              {"image": "base", "idempotency_key": "k"}, "secret-1")
        status, rec = api.handle("PUT", "/v1/provision",
                                 {"image": "base", "idempotency_key": "k"}, "secret-2")
        assert status == 200 and rec["tenant"] == "t2"
        assert rec["node"] != first["node"]
        assert rec["clone_image"] != first["clone_image"]
        assert rec["target"] != first["target"]

    def test_deprovision_key_of_another_tenant_releases_their_node(self, api):
        upload(api, "secret-1", "base", b"\x01" * BS)
        upload(api, "secret-2", "base", b"\x02" * BS)
        _, mine = api.handle("PUT", "/v1/provision", {"image": "base"}, "secret-1")
        api.handle("DELETE", f"/v1/provision/{mine['node']}", {"idempotency_key": "d"},
                   "secret-1")
        _, theirs = api.handle("PUT", "/v1/provision", {"image": "base"}, "secret-2")
        status, body = api.handle("DELETE", f"/v1/provision/{theirs['node']}",
                                  {"idempotency_key": "d"}, "secret-2")
        assert status == 200 and body == {"ok": True}
        assert api.svc.list_provisions("t2") == []


class TestErrors:
    def test_unknown_endpoint(self, api):
        status, body = api.handle("GET", "/v2/everything", {}, "secret-1")
        assert status == 404

    def test_error_shape(self, api):
        status, body = api.handle("DELETE", "/v1/provision/node-042", {}, "secret-1")
        assert status == 404
        assert set(body) == {"code", "message"}
        assert body["code"] == "NotFound"

    def test_rollback_report_carries_failing_step(self, api):
        upload(api, "secret-1", "base", b"\x01" * BS)
        from metalforge.errors import StorageFailure

        def hook(step, node):
            if step == "attach":
                raise StorageFailure("injected")

        api.svc.fault_hook = hook
        status, body = api.handle("PUT", "/v1/provision", {"image": "base"}, "secret-1")
        api.svc.fault_hook = None
        assert status == 500
        assert body["code"] == "RollbackReport"
        assert body["failing_step"] == "attach"

    def test_file_error_in_a_snapshot_is_a_storage_failure(self, api, monkeypatch):
        upload(api, "secret-1", "base", random.Random(1).randbytes(8 * BS))
        _, rec = api.handle("PUT", "/v1/provision", {"image": "base"}, "secret-1")

        def disk_full(self, index, payload):
            raise OSError("No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(BlockFile, "write_block", disk_full)  # the copy-up fails
            status, body = api.handle("PUT", f"/v1/snapshot/{rec['node']}",
                                      {"name": "cp-1"}, "secret-1")
        assert status == 500 and body["code"] == "StorageFailure"
        live = api.svc.get_record("t1", rec["node"])
        api.svc.gateway.target_write(live.node, live.target, 0, b"still-live")
        assert api.svc.verify_invariants() == []

    def test_missing_field(self, api):
        status, body = api.handle("PUT", "/v1/provision", {}, "secret-1")
        assert status == 400 and body["code"] == "InvalidRequest"

    def test_unknown_endpoint_is_404_before_auth(self, api):
        status, body = api.handle("GET", "/v1/images/base/bogus", {})
        assert status == 404 and body["code"] == "NotFound"

    def test_string_keep_image_is_invalid_and_deletes_nothing(self, api):
        upload(api, "secret-1", "base", b"\x01" * BS)
        _, rec = api.handle("PUT", "/v1/provision", {"image": "base"}, "secret-1")
        status, body = api.handle("DELETE", f"/v1/provision/{rec['node']}",
                                  {"keep_image": "false"}, "secret-1")
        assert status == 400 and body["code"] == "InvalidRequest"
        assert [r["node"] for r in api.svc.list_provisions("t1")] == [rec["node"]]
        assert api.svc.images.exists(rec["clone_image"])

    def test_conflict_maps_to_409(self, api):
        upload(api, "secret-1", "dup", b"\x01" * BS)
        status, body = upload(api, "secret-1", "dup", b"\x01" * BS)
        assert status == 409 and body["code"] == "DuplicateName"


@pytest.mark.parametrize("method, path, body", [
    ("GET", "/v1/images", {"tenant": ["t1"]}),
    ("POST", "/v1/images/base/rename", {"tenant": "t1", "new_name": ["x"]}),
    ("PUT", "/v1/provision", {"tenant": "t1", "image": 7}),
    ("PUT", "/v1/provision", {"tenant": "t1", "image": "base", "node": 1}),
])
def test_field_of_wrong_type_is_invalid_request(tmp_path, method, path, body):
    stack = build_stack(tmp_path / "open", nodes=1)  # no auth table
    stack.images.import_image("t1", "base", b"\x01" * BS)
    try:
        status, reply = ApiServer(stack).handle(method, path, body)
        assert status == 400 and reply["code"] == "InvalidRequest"
        assert stack.images.find_by_name("t1", "base") is not None
        assert stack.list_provisions("t1") == []
    finally:
        stack.close()


class TestHttpTransport:
    def test_real_socket_round_trip(self, api):
        server, port = serve_background(api)
        try:
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/images",
                data=json.dumps({
                    "name": "wire",
                    "content_b64": base64.b64encode(b"\x02" * BS).decode(),
                }).encode(),
                method="POST",
                headers={"Authorization": "Bearer secret-1",
                         "Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req) as resp:
                body = json.loads(resp.read())
            assert body["name"] == "wire"

            with urllib.request.urlopen(
                    urllib.request.Request(
                        f"http://127.0.0.1:{port}/v1/images",
                        headers={"Authorization": "Bearer secret-1"})) as resp:
                listing = json.loads(resp.read())
            assert [r["name"] for r in listing["images"]] == ["wire"]
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_invalid_request(self, api, length):
        server, port = serve_background(api)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall(f"POST /v1/images HTTP/1.1\r\nHost: x\r\n"
                             f"Content-Length: {length}\r\n\r\n".encode())
                reply = b""
                while chunk := sock.recv(4096):
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.split(b"\r\n")[0].split()[1] == b"400"
            assert json.loads(body)["code"] == "InvalidRequest"
        finally:
            server.shutdown()
            server.server_close()

    def test_query_string_keep_image_is_invalid_and_deletes_nothing(self, api):
        upload(api, "secret-1", "base", b"\x01" * BS)
        _, rec = api.handle("PUT", "/v1/provision", {"image": "base"}, "secret-1")
        server, port = serve_background(api)
        try:
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/provision/{rec['node']}"
                f"?tenant=t1&keep_image=false",
                method="DELETE", headers={"Authorization": "Bearer secret-1"})
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req)
            assert err.value.code == 400
            assert json.loads(err.value.read())["code"] == "InvalidRequest"
        finally:
            server.shutdown()
            server.server_close()
        assert [r["node"] for r in api.svc.list_provisions("t1")] == [rec["node"]]
        assert api.svc.images.exists(rec["clone_image"])

    def test_non_object_json_body_is_invalid_request(self, api):
        server, port = serve_background(api)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                sock.sendall(b"POST /v1/images HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: 5\r\n\r\n[1,2]")
                reply = b""
                while chunk := sock.recv(4096):
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.split(b"\r\n")[0].split()[1] == b"400"
            assert json.loads(body)["code"] == "InvalidRequest"
        finally:
            server.shutdown()
            server.server_close()

    def test_http_error_status_propagates(self, api):
        server, port = serve_background(api)
        try:
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/traffic/node-042",
                headers={"Authorization": "Bearer secret-1"})
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req)
            assert err.value.code == 404
            assert json.loads(err.value.read())["code"] == "NotFound"
        finally:
            server.shutdown()
            server.server_close()


def test_bad_mac_registration_is_invalid_request(api):
    status, body = api.handle("POST", "/v1/nodes", {"mac": "not-a-mac"}, "admin-secret")
    assert status == 400 and body["code"] == "InvalidRequest"
