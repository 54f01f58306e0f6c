type t = { engine : Engine.t; cpu : Cpu.t; costs : Costs.t; rng : Rng.t }

let create ?(costs = Costs.default) ?(seed = 0xC0FFEE) ~ncores () =
  {
    engine = Engine.create ();
    cpu = Cpu.create ~costs ~ncores ();
    costs;
    rng = Rng.create seed;
  }

let now t = Engine.now t.engine

let run ?until t = Engine.run ?until t.engine

let spawn t f = Engine.spawn t.engine f

let compute t ~thread ns = Cpu.compute t.cpu ~thread ns

let compute_cell t ~thread cells i = Cpu.compute_cell t.cpu ~thread cells i
