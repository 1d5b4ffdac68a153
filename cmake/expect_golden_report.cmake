# CTest helper: run a scenario file at smoke size at --threads 1 and 4 and
# require each JSON report to equal the committed golden byte for byte,
# except the "workers" line, which records the thread count by design.
#
#   cmake -DCMD=<socbuf_cli> -DFILE=<scenario.json> -DGOLDEN=<golden.json>
#         -DOUT=<report prefix> -P expect_golden_report.cmake
#
# A deliberate change of report bits regenerates the goldens (see
# tests/golden/README.md) and explains the diff in CHANGES.md.
set(drop_workers "\n *\"workers\": [0-9]+,")
file(READ ${GOLDEN} golden)
string(REGEX REPLACE "${drop_workers}" "" golden "${golden}")
foreach(threads 1 4)
    set(report ${OUT}_t${threads}.json)
    execute_process(COMMAND ${CMD} run --file ${FILE} --horizon 300
                            --replications 1 --iterations 2
                            --threads ${threads} --json ${report}
                    RESULT_VARIABLE exit_code
                    OUTPUT_QUIET
                    ERROR_VARIABLE err)
    if(NOT exit_code EQUAL 0)
        message(FATAL_ERROR "'${CMD} run --file ${FILE}' at --threads"
                " ${threads} exited '${exit_code}' (stderr: ${err})")
    endif()
    file(READ ${report} actual)
    string(REGEX REPLACE "${drop_workers}" "" actual "${actual}")
    if(NOT actual STREQUAL golden)
        message(FATAL_ERROR "${report} differs from ${GOLDEN} (beyond the"
                " workers line) at --threads ${threads}")
    endif()
endforeach()
