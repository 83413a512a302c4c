"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.paperdata import (
    FIGURE1_XML,
    FIGURE2_DTD,
    FIGURE3_XSD,
    FIGURE5_BONXAI,
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, content in (
        ("fig1.xml", FIGURE1_XML),
        ("fig2.dtd", FIGURE2_DTD),
        ("fig3.xsd", FIGURE3_XSD),
        ("fig5.bonxai", FIGURE5_BONXAI),
    ):
        target = tmp_path / name
        target.write_text(content)
        paths[name] = str(target)
    return paths


class TestValidate:
    def test_bonxai_valid(self, files, capsys):
        assert main(["validate", files["fig5.bonxai"], files["fig1.xml"]]) == 0
        assert "VALID" in capsys.readouterr().out

    def test_xsd_valid(self, files, capsys):
        assert main(["validate", files["fig3.xsd"], files["fig1.xml"]]) == 0

    def test_dtd_valid(self, files, capsys):
        assert main(["validate", files["fig2.dtd"], files["fig1.xml"]]) == 0

    @pytest.mark.parametrize("schema", ["fig2.dtd", "fig3.xsd",
                                        "fig5.bonxai"])
    @pytest.mark.parametrize("engine", ["tree", "streaming"])
    def test_files_saved_with_a_byte_order_mark(self, files, tmp_path,
                                                capsys, schema, engine):
        # Editors may save UTF-8 with a byte-order mark; every schema
        # kind and the document must still load.
        marked = {}
        for name in (schema, "fig1.xml"):
            target = tmp_path / f"bom-{name}"
            target.write_bytes(b"\xef\xbb\xbf"
                               + (tmp_path / name).read_bytes())
            marked[name] = str(target)
        assert main(["validate", marked[schema], marked["fig1.xml"],
                     "--engine", engine]) == 0
        assert "VALID" in capsys.readouterr().out

    def test_invalid_document(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<document><content/></document>")
        assert main(["validate", files["fig5.bonxai"], str(bad)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out

    def test_missing_file(self, files, capsys):
        assert main(["validate", files["fig5.bonxai"], "/nope.xml"]) == 2

    def test_streaming_engine_xsd(self, files, capsys):
        assert main(["validate", files["fig3.xsd"], files["fig1.xml"],
                     "--engine", "streaming"]) == 0
        assert "VALID" in capsys.readouterr().out

    def test_streaming_engine_bonxai(self, files, capsys):
        assert main(["validate", files["fig5.bonxai"], files["fig1.xml"],
                     "--engine", "streaming"]) == 0

    def test_streaming_engine_dtd(self, files, capsys):
        assert main(["validate", files["fig2.dtd"], files["fig1.xml"],
                     "--engine", "streaming"]) == 0

    def test_streaming_engine_invalid(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<document><content/></document>")
        assert main(["validate", files["fig3.xsd"], str(bad),
                     "--engine", "streaming"]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out

    def test_engines_agree_on_violation_count(self, files, tmp_path,
                                              capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text(
            "<document><template/><userstyles/>"
            "<content><section title='t'><bogus/></section></content>"
            "</document>"
        )
        assert main(["validate", files["fig3.xsd"], str(bad)]) == 1
        tree_out = capsys.readouterr().out
        assert main(["validate", files["fig3.xsd"], str(bad),
                     "--engine", "streaming"]) == 1
        stream_out = capsys.readouterr().out
        assert (sorted(tree_out.strip().splitlines())
                == sorted(stream_out.strip().splitlines()))

    def test_malformed_schema(self, files, tmp_path, capsys):
        broken = tmp_path / "broken.bonxai"
        broken.write_text("grammar {")
        assert main(["validate", str(broken), files["fig1.xml"]]) == 2


class TestHighlight:
    def test_lists_every_element(self, files, capsys):
        assert main(["highlight", files["fig5.bonxai"],
                     files["fig1.xml"]]) == 0
        out = capsys.readouterr().out
        assert "/document/template/section" in out
        assert "template//section" in out

    def test_requires_bonxai(self, files, capsys):
        assert main(["highlight", files["fig3.xsd"], files["fig1.xml"]]) == 2


class TestConvert:
    def test_bonxai_to_xsd(self, files, capsys):
        assert main(["convert", files["fig5.bonxai"]]) == 0
        out = capsys.readouterr().out
        assert "<xs:schema" in out
        assert "xs:complexType" in out

    def test_xsd_to_bonxai(self, files, capsys):
        assert main(["convert", files["fig3.xsd"]]) == 0
        out = capsys.readouterr().out
        assert "grammar {" in out

    def test_dtd_to_bonxai(self, files, capsys):
        assert main(["convert", files["fig2.dtd"]]) == 0
        out = capsys.readouterr().out
        assert "grammar {" in out
        assert "element template" in out

    def test_output_file(self, files, tmp_path, capsys):
        target = tmp_path / "out.xsd"
        assert main(["convert", files["fig5.bonxai"], "-o",
                     str(target)]) == 0
        assert "<xs:schema" in target.read_text()

    def test_converted_xsd_validates_document(self, files, tmp_path,
                                              capsys):
        target = tmp_path / "converted.xsd"
        main(["convert", files["fig5.bonxai"], "-o", str(target)])
        capsys.readouterr()
        assert main(["validate", str(target), files["fig1.xml"]]) == 0

    def test_converted_bonxai_validates_document(self, files, tmp_path,
                                                 capsys):
        target = tmp_path / "converted.bonxai"
        main(["convert", files["fig3.xsd"], "-o", str(target)])
        capsys.readouterr()
        assert main(["validate", str(target), files["fig1.xml"]]) == 0


class TestAnalyze:
    def test_bonxai(self, files, capsys):
        assert main(["analyze", files["fig5.bonxai"]]) == 0
        out = capsys.readouterr().out
        assert "structural k-suffix" in out
        assert "states" in out

    def test_xsd(self, files, capsys):
        assert main(["analyze", files["fig3.xsd"]]) == 0

    def test_dtd(self, files, capsys):
        assert main(["analyze", files["fig2.dtd"]]) == 0
        out = capsys.readouterr().out
        assert "structural k-suffix: 1" in out


class TestStudy:
    def test_runs(self, capsys):
        assert main(["study", "--size", "20", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "within 3-suffix" in out


class TestObservabilityFlags:
    def test_metrics_dumps_json_snapshot_to_stderr(self, files, capsys):
        assert main(["validate", files["fig3.xsd"], files["fig1.xml"],
                     "--engine", "streaming", "--metrics"]) == 0
        out, err = capsys.readouterr()
        assert "VALID" in out
        snapshot = json.loads(err)
        cache = snapshot["counters"]
        assert cache["engine.cache.hits"] + cache["engine.cache.misses"] > 0
        assert snapshot["histograms"]["engine.compile.dfa_states"]["count"] > 0
        assert cache["engine.stream.docs"] >= 1

    def test_metrics_emitted_even_on_invalid_document(self, files,
                                                      tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<document><content/></document>")
        assert main(["validate", files["fig5.bonxai"], str(bad),
                     "--metrics"]) == 1
        _, err = capsys.readouterr()
        json.loads(err)  # still a well-formed snapshot

    def test_state_budget_refuses_theorem9_blowup(self, tmp_path, capsys):
        from repro.bonxai import bxsd_to_schema, print_schema
        from repro.families import theorem9_bxsd

        schema = tmp_path / "t9.bonxai"
        schema.write_text(print_schema(bxsd_to_schema(theorem9_bxsd(8))))
        assert main(["analyze", str(schema), "--budget-states", "64"]) == 2
        _, err = capsys.readouterr()
        assert "budget exceeded" in err

    def test_generous_budget_lets_small_schemas_through(self, files,
                                                        capsys):
        assert main(["convert", files["fig5.bonxai"],
                     "--budget-states", "100000",
                     "--budget-seconds", "60"]) == 0
        assert "<xs:schema" in capsys.readouterr().out

    def test_budget_flags_reject_nonpositive(self, files, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", files["fig5.bonxai"], "--budget-states", "0"])


class TestUsage:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2


class TestValidateResilienceFlags:
    def test_flags_route_through_the_isolation_machinery(self, files,
                                                         capsys):
        assert main(["validate", files["fig3.xsd"], files["fig1.xml"],
                     "--deadline", "5", "--retries", "2",
                     "--limits-depth", "50"]) == 0
        out = capsys.readouterr().out
        assert "VALID" in out
        assert "1 ok / 0 invalid / 0 errored" in out

    def test_tight_limits_error_the_document_not_the_run(self, files,
                                                         capsys):
        assert main(["validate", files["fig3.xsd"], files["fig1.xml"],
                     "--limits-input-bytes", "16"]) == 1
        out = capsys.readouterr().out
        assert "limit" in out
        assert "0 ok / 0 invalid / 1 errored" in out

    def test_tiny_deadline_errors_the_document(self, files, capsys):
        assert main(["validate", files["fig3.xsd"], files["fig1.xml"],
                     "--deadline", "1e-9"]) == 1
        assert "deadline" in capsys.readouterr().out

    def test_limits_compose_with_batch_mode(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<document><content/></document>")
        assert main(["validate", files["fig3.xsd"], files["fig1.xml"],
                     str(bad), "--limits-depth", "50"]) == 1
        out = capsys.readouterr().out
        assert "1 ok / 1 invalid / 0 errored" in out

    def test_nonpositive_flag_values_are_rejected(self, files):
        for flags in (["--limits-depth", "0"], ["--deadline", "0"],
                      ["--retries", "0"]):
            with pytest.raises(SystemExit):
                main(["validate", files["fig3.xsd"], files["fig1.xml"]]
                     + flags)

    @pytest.mark.parametrize("schema_name, schema, valid, invalid", [
        # A dangling keyref: the BonXai validator checks integrity
        # constraints, which the translated formal XSD drops.
        ("keys.bonxai", """
            global { doc }
            grammar {
              doc = { (element def)*, (element use)* }
              def = { attribute id }
              use = { attribute ref }
            }
            constraints {
              key defs doc/def (@id)
              keyref uses doc/use (@ref) refers defs
            }
            """,
         "<doc><def id='a'/><use ref='a'/></doc>",
         "<doc><def id='a'/><use ref='zz'/></doc>"),
        # An attribute value outside the DTD's enumeration.
        ("kinds.dtd", """
            <!ELEMENT a EMPTY>
            <!ATTLIST a kind (x|y) #REQUIRED>
            """,
         '<a kind="x"/>', '<a kind="z"/>'),
    ], ids=["bonxai-keyref", "dtd-attribute-enumeration"])
    def test_batch_runs_the_schema_kinds_own_check(
        self, tmp_path, capsys, schema_name, schema, valid, invalid
    ):
        paths = {}
        for name, content in ((schema_name, schema), ("valid.xml", valid),
                              ("invalid.xml", invalid)):
            (tmp_path / name).write_text(content)
            paths[name] = str(tmp_path / name)
        alone = ["validate", paths[schema_name], paths["invalid.xml"]]
        assert main(alone) == 1
        assert "INVALID (1 violation(s))" in capsys.readouterr().out
        for extra, summary in (
            (["--deadline", "5"], "0 ok / 1 invalid / 0 errored"),
            ([paths["valid.xml"]], "1 ok / 1 invalid / 0 errored"),
        ):
            assert main(alone + extra) == 1
            out = capsys.readouterr().out
            assert f"{paths['invalid.xml']}: INVALID (1 violation(s))" in out
            assert summary in out


class TestServeCommand:
    def test_negative_queue_depth_is_a_usage_error(self, capsys):
        assert main(["serve", "--queue-depth", "-1"]) == 2
        assert "--queue-depth" in capsys.readouterr().err

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--workers", "0"])
