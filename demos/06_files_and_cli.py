"""Matrix Market files, config files, and the command-line round trip.

Generates a seeded problem on disk, solves it through the CLI entry
point, and reads the emitted JSON and CSV reports back -- the same
workflow a batch harness would script.  Wall-clock times and the
temporary directory are left out, so two runs print the same.
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile

from dsda import load_matrix_market, save_matrix_market
from dsda.cli import run_cli

with tempfile.TemporaryDirectory(prefix="dsda-demo-") as workdir:
    # 1. Generate a discrete-time instance with matrices + config on disk;
    # gen prints the config's path, of which only the name is shown.
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        code = run_cli(["gen", "--family", "dare", "--seed", "7",
                        "--out-dir", workdir, "--n", "12", "--m", "2",
                        "--l", "2"])
    print("gen exit code:", code, "config:",
          os.path.basename(printed.getvalue().strip()))
    print("files:", sorted(os.listdir(workdir)))

    # Array-format files round-trip bit for bit.
    a = load_matrix_market(os.path.join(workdir, "A.mtx"))
    save_matrix_market(os.path.join(workdir, "A_copy.mtx"), a)
    lines = [pathlib.Path(workdir, name).read_text().splitlines()
             for name in ("A.mtx", "A_copy.mtx")]
    print("reload is bit-identical:", lines[0][2:] == lines[1][1:])

    # 2. Solve from the generated config, JSON report to a file.
    report_path = os.path.join(workdir, "report.json")
    code = run_cli(["solve", "--config", os.path.join(workdir, "problem.cfg"),
                    "--output", "json", "--out-path", report_path])
    print("\nsolve exit code:", code, "(0 = Converged, 2 = MaxIter,"
          " 3 = BudgetExceeded, 4 = SingularEncountered)")

    payload = json.loads(pathlib.Path(report_path).read_text())
    print("status:", payload["status"])
    print("  k residual        rank cols")
    for rec in payload["iterations"]:
        print(f"  {rec['k']} {rec['residual']:.6e} {rec['rank']:4d} "
              f"{rec['basis_cols']:4d}")

    # 3. The same solve as CSV (residuals at 4 significant digits), shown
    # without its last column, the wall-clock elapsed_ms.
    csv_path = os.path.join(workdir, "report.csv")
    run_cli(["solve", "--config", os.path.join(workdir, "problem.cfg"),
             "--out-path", csv_path])
    print("\nCSV form, elapsed_ms cut:")
    for line in pathlib.Path(csv_path).read_text().splitlines():
        print(line.rsplit(",", 1)[0])
