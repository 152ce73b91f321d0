type t = {
  context_switch : Time.ns;
  wakeup_path : Time.ns;
  syscall : Time.ns;
  ipi_latency : Time.ns;
  idle_exit : Time.ns;
  deep_idle_exit : Time.ns;
  deep_idle_after : Time.ns;
  migration : Time.ns;
  tick_period : Time.ns;
  timer_arm : Time.ns;
  enoki_call : Time.ns;
  ghost_agent_local : Time.ns;
  ghost_agent_burn : Time.ns;
  ghost_agent_remote : Time.ns;
  ghost_msg : Time.ns;
  record_msg : Time.ns;
  upgrade_base : Time.ns;
  upgrade_per_cpu : Time.ns;
  upgrade_per_task : Time.ns;
  failover : Time.ns;
}

let default =
  {
    context_switch = 900;
    wakeup_path = 450;
    syscall = 350;
    ipi_latency = 350;
    idle_exit = 1_150;
    deep_idle_exit = 30_000;
    deep_idle_after = 150_000;
    migration = 600;
    tick_period = Time.ms 1;
    timer_arm = 100;
    enoki_call = 125;
    ghost_agent_local = 3_600;
    ghost_agent_burn = 800;
    ghost_agent_remote = 1_100;
    ghost_msg = 250;
    record_msg = 5_200;
    upgrade_base = 550;
    upgrade_per_cpu = 117;
    upgrade_per_task = 3;
    failover = 1_500;
  }
