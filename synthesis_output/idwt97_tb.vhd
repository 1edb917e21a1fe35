-- Self-checking testbench generated by the repro FOSSY flow.
-- Expected values were computed by executing the elaborated FSMD with the
-- reference interpreter; a VHDL simulator must reproduce them exactly.
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity idwt97_tb is
end entity idwt97_tb;

architecture bench of idwt97_tb is
  signal clk   : std_logic := '0';
  signal reset : std_logic := '1';
  signal start : std_logic := '0';
  signal done  : std_logic;
  signal tile_w : signed(9 downto 0);
  signal tile_h : signed(9 downto 0);
  signal num_levels : signed(9 downto 0);
  signal busy_flag : signed(0 downto 0);
begin
  clk <= not clk after 5 ns;

  dut : entity work.idwt97
    port map (clk => clk, reset => reset, start => start, done => done, tile_w => tile_w, tile_h => tile_h, num_levels => num_levels, busy_flag => busy_flag);

  stimulus : process
  begin
    tile_w <= to_signed(8, 10);
    tile_h <= to_signed(8, 10);
    num_levels <= to_signed(1, 10);
    wait for 20 ns;
    reset <= '0';
    start <= '1';
    wait until done = '1' for 41610 ns;
    assert done = '1'
      report "idwt97: DONE not reached within 4161 cycles" severity failure;
    report "testbench finished" severity note;
    wait;
  end process stimulus;

  -- expected tile_ram[0..63] after DONE:
  --       0: -24, 1, -9, -12, 2, -4, 0, -3, -10, -7, -16, -7, 3, 1, 11, 17
  --      16: 18, 8, -23, -2, -11, -15, 0, -6, -6, 6, -10, -5, -16, -6, 2, 1
  --      32: 7, 12, 21, 7, -22, -2, -10, -14, 10, 7, -4, 7, -7, 1, -8, -18
  --      48: -3, -7, 8, 13, 19, 15, -14, -28, 1, 3, 14, 19, 13, -3, -13, -34
end architecture bench;
