"""WP-SQLI-LAB equivalent: simulated WordPress, 50 vulnerable plugins,
working exploits, the three case-study applications, the benign crawler and
the security-evaluation harness (paper Section V)."""

from .crawler import CrawlReport, crawl_requests, full_crawl
from .evaluation import (
    CorpusEvaluation,
    PluginReport,
    SQLGEN_TARGETS,
    evaluate_corpus,
    evaluate_sqlgen_variants,
)
from .exploits import (
    DOUBLE_BLIND_DELAY,
    Exploit,
    ExploitOutcome,
    all_exploits,
    benign_value,
    craft_exploit,
    make_request,
    run_exploit,
)
from .other_apps import (
    Scenario,
    ScenarioReport,
    all_scenarios,
    drupal_scenario,
    joomla_scenario,
    oscommerce_scenario,
)
from .plugin_defs import ALL_PLUGINS, AttackType, PluginDef, plugin_by_name
from .second_order import (
    MixedSourceAttack,
    SecondOrderAttack,
    install_extensions,
)
from .plugins import build_plugin, build_testbed, generate_php_source, install_plugin
from .wordpress import (
    ADMIN_PASSWORD_HASH,
    WORDPRESS_CORE_SOURCE,
    build_wordpress,
    seed_content,
)

__all__ = [
    "CrawlReport",
    "crawl_requests",
    "full_crawl",
    "CorpusEvaluation",
    "PluginReport",
    "SQLGEN_TARGETS",
    "evaluate_corpus",
    "evaluate_sqlgen_variants",
    "DOUBLE_BLIND_DELAY",
    "Exploit",
    "ExploitOutcome",
    "all_exploits",
    "benign_value",
    "craft_exploit",
    "make_request",
    "run_exploit",
    "Scenario",
    "ScenarioReport",
    "all_scenarios",
    "drupal_scenario",
    "joomla_scenario",
    "oscommerce_scenario",
    "ALL_PLUGINS",
    "AttackType",
    "PluginDef",
    "plugin_by_name",
    "MixedSourceAttack",
    "SecondOrderAttack",
    "install_extensions",
    "build_plugin",
    "build_testbed",
    "generate_php_source",
    "install_plugin",
    "ADMIN_PASSWORD_HASH",
    "WORDPRESS_CORE_SOURCE",
    "build_wordpress",
    "seed_content",
]
