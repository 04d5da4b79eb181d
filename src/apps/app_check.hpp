/**
 * @file
 * Checked execution of whole applications: run every stage's device
 * kernel over one task under a bt::check::Checker, validate the
 * outputs, and return the report. This is the sweep bt_explorer
 * --check and CI run over the example workloads.
 */

#ifndef BT_APPS_APP_CHECK_HPP
#define BT_APPS_APP_CHECK_HPP

#include <string_view>

#include "check/checker.hpp"
#include "core/application.hpp"

namespace bt::apps {

/**
 * Run every stage of @p app (device kernels, in pipeline order) over
 * one freshly created task under bt::check instrumentation. Each stage
 * gets its own context frame, so findings read "App/stage: ...". When
 * the application has a validator attached, it runs on the checked
 * outputs and a rejection becomes a ValidationFailure finding.
 */
check::Report checkApplication(const core::Application& app);

/**
 * Checked run of a named example workload - "dense", "sparse" or
 * "octree" - at a reduced, validator-enabled scale (checked execution
 * is serial and shadow-tracked, so paper-scale inputs are pointless).
 * Panics on an unknown name.
 */
check::Report checkScaledApp(std::string_view name);

} // namespace bt::apps

#endif // BT_APPS_APP_CHECK_HPP
