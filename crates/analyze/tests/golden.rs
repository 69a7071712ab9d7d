//! Golden tests for the lint and flow report documents: a fixed image
//! must render to the exact bytes of the committed golden files.

use ia_analyze::flow::{analyze_flow, FlowSpec};
use ia_analyze::{analyze_image, flow_json, lint_json};

const SRC: &str = r#"
    .data
    secret: .asciz "/secret/key"
    buf: .space 16
    .text
    main:
        la r0, secret
        li r1, 0
        li r2, 0
        sys open
        mov r12, r0
        mov r0, r12
        la r1, buf
        li r2, 16
        sys read
        li r0, 1
        la r1, buf
        li r2, 16
        sys write
        li r3, 0
        div r4, r5, r3
        mov r0, r9
        li r0, 0
        sys exit
"#;

fn fixture() -> (ia_analyze::ImageAnalysis, ia_analyze::FlowAnalysis) {
    let img = ia_vm::assemble(SRC).expect("fixture assembles");
    let a = analyze_image(&img);
    let fa = analyze_flow(&img, &a, &FlowSpec::new().label("secret", &[b"/secret"]));
    (a, fa)
}

#[test]
fn lint_report_matches_golden() {
    let (a, _) = fixture();
    assert_eq!(
        lint_json("fixture \"odd\"", &a).render(),
        include_str!("golden/lint.json")
    );
}

#[test]
fn flow_report_matches_golden() {
    let (_, fa) = fixture();
    assert_eq!(
        flow_json("fixture", &fa).render(),
        include_str!("golden/flow.json")
    );
}
