"""Pass only when a tier-1 JUnit report fails exactly the documented tests.

Usage: python .github/check_tier1.py REPORT.xml

The five expected failures are the targets README "Expected acceptance
failures" describes.  Any other failure or error, an expected failure that
passes or is missing, or a report without tests makes the check fail.
"""
import sys
import xml.etree.ElementTree as ET

EXPECTED = {
    "tests.test_acceptance::test_criterion_2_worked_examples[rational2-0.66666666666666667]",
    "tests.test_acceptance::test_criterion_4_convergence_order[DOPRI8]",
    "tests.test_acceptance::test_criterion_4_convergence_order[DPRK658M]",
    "tests.test_acceptance::test_criterion_4_convergence_order[DVERK65]",
    "tests.test_acceptance::test_criterion_4_convergence_order[Fehlberg78B]",
}


def main(path: str) -> int:
    cases = list(ET.parse(path).getroot().iter("testcase"))
    failed = {f"{case.get('classname')}::{case.get('name')}" for case in cases
              if case.find("failure") is not None or case.find("error") is not None}
    problems = [f"unexpected failure: {name}" for name in sorted(failed - EXPECTED)]
    problems += [f"expected failure did not fail: {name}" for name in sorted(EXPECTED - failed)]
    if not cases:
        problems.append("the report holds no tests")
    for line in problems:
        print(line)
    print(f"{len(cases)} tests, {len(failed)} failed: "
          + ("ok" if not problems else "not the documented set"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
