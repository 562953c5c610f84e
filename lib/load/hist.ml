include Bx_obs.Hist
