import io
import sys
import textwrap

import numpy as np
import pytest

from symabs.errors import OracleError, ProtocolError
from symabs.extoracle import ExternalOracle, format_request, serve_oracle
from symabs.model import BlackBoxSystem, SystemSignature


def make_signature(dist_dim=1):
    return SystemSignature(state_dim=1, input_set=[(0.0,), (1.0,)],
                           disturbance_dim=dist_dim,
                           state_box=[(-2.0, 2.0)],
                           disturbance_box=[(-2.0, 2.0)] * dist_dim)


SERVER_SCRIPT = textwrap.dedent("""
    from symabs.extoracle import serve_oracle
    from symabs.model import BlackBoxSystem, SystemSignature

    sig = SystemSignature(state_dim=1, input_set=[(0.0,), (1.0,)],
                          disturbance_dim=1, state_box=[(-2.0, 2.0)],
                          disturbance_box=[(-2.0, 2.0)])
    sys_ = BlackBoxSystem(signature=sig,
                          oracle=lambda x, nu, d: 0.5 * x + nu + 0.25 * d)
    serve_oracle(sys_)
""")


def test_format_request_line():
    line = format_request([0.5], [1.0], [-0.25])
    assert line == "STEP 0.5 1.0 -0.25"
    assert format_request([0.5], [1.0], []) == "STEP 0.5 1.0"


def test_serve_oracle_over_streams():
    sig = make_signature()
    sys_ = BlackBoxSystem(signature=sig,
                          oracle=lambda x, nu, d: 0.5 * x + nu + 0.25 * d)
    stdin = io.StringIO(
        "STEP 1.0 0.0 0.0\n"
        "\n"                      # blank lines are skipped
        "STEP 1.0 1.0 1.0\n"
        "PING 1 2 3\n"            # unknown command
        "STEP 1.0 oops 0.0\n"     # malformed float
        "STEP 1.0 0.0\n"          # wrong arity
    )
    stdout = io.StringIO()
    serve_oracle(sys_, stdin=stdin, stdout=stdout)
    lines = stdout.getvalue().splitlines()
    assert len(lines) == 5
    assert lines[0] == "OK 0.5"
    assert lines[1] == "OK 1.75"
    assert lines[2].startswith("ERR unknown command")
    assert lines[3].startswith("ERR")
    assert lines[4].startswith("ERR expected 3 numbers")


def test_external_oracle_roundtrip_subprocess():
    sig = make_signature()
    with ExternalOracle([sys.executable, "-c", SERVER_SCRIPT], sig) as oracle:
        y = oracle.step([1.0], [0.0], [0.0])
        assert np.allclose(y, [0.5])
        y = oracle.step([1.0], [1.0], [1.0])
        assert np.allclose(y, [1.75])
        # pipelined queries come back in order
        batch = oracle.step_many([([1.0], [0.0], [0.0]),
                                  ([0.0], [1.0], [0.0]),
                                  ([0.0], [0.0], [2.0])])
        assert np.allclose(np.concatenate(batch), [0.5, 1.0, 0.5])


def test_external_oracle_as_system():
    sig = make_signature()
    with ExternalOracle([sys.executable, "-c", SERVER_SCRIPT], sig) as oracle:
        wrapped = oracle.as_system()
        y = wrapped.step([1.0], [1.0], [0.0])
        assert np.allclose(y, [1.5])
        assert wrapped.signature is sig


def test_external_oracle_err_response_raises():
    sig = make_signature()
    with ExternalOracle([sys.executable, "-c", SERVER_SCRIPT], sig) as oracle:
        with pytest.raises(OracleError):
            oracle.step([1.0, 2.0], [0.0], [0.0])  # arity error from server
        # the stream stays usable afterwards
        assert np.allclose(oracle.step([1.0], [0.0], [0.0]), [0.5])


def test_external_oracle_malformed_reply():
    sig = make_signature()
    script = "print('GARBAGE', flush=True)\nimport time; time.sleep(5)"
    with ExternalOracle([sys.executable, "-c", script], sig,
                        timeout=2.0) as oracle:
        with pytest.raises(ProtocolError):
            oracle.step([1.0], [0.0], [0.0])


def test_external_oracle_wrong_width_reply():
    sig = make_signature()
    script = ("import sys\n"
              "for line in sys.stdin:\n"
              "    print('OK 1.0 2.0', flush=True)\n")
    with ExternalOracle([sys.executable, "-c", script], sig) as oracle:
        with pytest.raises(ProtocolError, match="expected 1"):
            oracle.step([1.0], [0.0], [0.0])


def test_external_oracle_timeout():
    sig = make_signature()
    script = "import time\ntime.sleep(30)"
    with ExternalOracle([sys.executable, "-c", script], sig,
                        timeout=0.3) as oracle:
        with pytest.raises(OracleError, match="timed out"):
            oracle.step([1.0], [0.0], [0.0])


def test_external_oracle_closed_stream():
    sig = make_signature()
    with ExternalOracle([sys.executable, "-c", "pass"], sig,
                        timeout=2.0) as oracle:
        with pytest.raises((OracleError, ProtocolError)):
            oracle.step([1.0], [0.0], [0.0])


def test_external_oracle_close_closes_stdout():
    sig = make_signature()
    # normal path: the server exits once its input closes
    oracle = ExternalOracle([sys.executable, "-c", SERVER_SCRIPT], sig)
    assert np.allclose(oracle.step([1.0], [0.0], [0.0]), [0.5])
    oracle.close()
    assert oracle._proc.returncode == 0
    assert oracle._proc.stdout.closed
    # kill path: the child ignores its closed input and outlives the timeout
    oracle = ExternalOracle([sys.executable, "-c", "import time\ntime.sleep(30)"],
                            sig, timeout=0.3)
    oracle.close()
    assert oracle._proc.returncode != 0
    assert oracle._proc.stdout.closed
