# CTest helper: run ${CMD} with ${ARGS} (a ;-list) and require the usage
# error contract — exit code 2 plus a diagnostic on stderr. Used to pin
# socbuf_cli's handling of malformed flag values (which once escaped as an
# uncaught std::stoul exception, i.e. std::terminate) and of malformed
# scenario files (which must name the offending JSON path or file).
#
#   cmake -DCMD=<exe> "-DARGS=run;figure1;--threads;abc" -P expect_exit2.cmake
#
# Optional: -DMATCH=<regex> requires the diagnostic to match it instead of
# the generic "invalid|needs" (e.g. the JSON path "$.budgetz" a malformed
# scenario file must be blamed on, or "unknown option --x" for a flag the
# CLI does not know).
execute_process(COMMAND ${CMD} ${ARGS}
                RESULT_VARIABLE exit_code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT exit_code EQUAL 2)
    message(FATAL_ERROR
            "expected exit code 2 from '${CMD} ${ARGS}', got '${exit_code}'"
            " (stderr: ${err})")
endif()
if(DEFINED MATCH)
    if(NOT err MATCHES "${MATCH}")
        message(FATAL_ERROR
                "expected the diagnostic to match '${MATCH}', got: ${err}")
    endif()
elseif(NOT err MATCHES "invalid|needs")
    message(FATAL_ERROR
            "expected a diagnostic naming the bad flag on stderr, got:"
            " ${err}")
endif()
